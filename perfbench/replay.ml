(* Replay stage of the traced run: a bounded, deterministic sample of the
   envelopes the run delivered goes again through the codec
   ([Node.encode_envelope] / [decode_envelope]), the signature checks
   ([Validation.signatures_ok]) and the checkpoint verifier
   ([Checkpoint.verify]), each call timed and its allocation counted. The
   sample is every k-th delivery of each message kind (see {!Tracer}), so a
   simulated run replays the same envelopes on every repetition. *)

module Node = Shoalpp_runtime.Node
module Validation = Shoalpp_dag.Validation
module Committee = Shoalpp_dag.Committee
module Checkpoint = Shoalpp_storage.Checkpoint
module Signer = Shoalpp_crypto.Signer
module Digest32 = Shoalpp_crypto.Digest32
module Replica = Shoalpp_core.Replica

type cost = { ns_per_op : float; words_per_op : float }

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Run [f] over [items] in whole passes until at least [min_ms] of wall
   time has gone by. *)
let measure ?(min_ms = 30.0) f items =
  let items = Array.of_list items in
  if Array.length items = 0 then { ns_per_op = 0.0; words_per_op = 0.0 }
  else begin
    let ops = ref 0 in
    let w0 = allocated_words () in
    let t0 = Tracer.now_ns () in
    while float_of_int (Tracer.now_ns () - t0) < min_ms *. 1e6 do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
      ops := !ops + Array.length items
    done;
    let ns = float_of_int (Tracer.now_ns () - t0) in
    let words = allocated_words () -. w0 in
    { ns_per_op = ns /. float_of_int !ops; words_per_op = words /. float_of_int !ops }
  end

(* A checkpoint over the run's final log, certified by a quorum of the
   committee's keys, for workloads that run with checkpointing off. *)
let synthetic_checkpoint ~committee ~seq ~digest =
  let candidate = { Checkpoint.seq; lanes = []; state = Digest32.of_string digest } in
  let votes =
    List.init (Committee.quorum committee) (fun i ->
        let kp = Committee.keypair committee i in
        (Signer.public kp, Checkpoint.sign kp candidate))
  in
  Checkpoint.certify ~n:committee.Committee.n candidate votes

type result = { metrics : (string * float) list; replay_ok : bool; verify_ns : float array }

let run ~tracer ~committee ~checkpoint =
  let cluster_seed = committee.Committee.cluster_seed in
  let per_kind = Array.mapi (fun k _ -> Tracer.sample tracer k) Tracer.message_kinds in
  let envelopes = List.concat (Array.to_list per_kind) in
  let encoded = List.map Node.encode_envelope envelopes in
  let decoded_ok =
    List.for_all
      (fun s -> Option.is_some (Node.decode_envelope ~cluster_seed s))
      encoded
  in
  let payloads k = List.map (fun (e : Replica.envelope) -> e.Replica.payload) per_kind.(k) in
  let signatures_ok =
    List.for_all (fun k -> List.for_all (Validation.signatures_ok ~committee) (payloads k)) [ 0; 1; 2 ]
  in
  let enc = measure Node.encode_envelope envelopes in
  let dec = measure (Node.decode_envelope ~cluster_seed) encoded in
  let verify k = measure (Validation.signatures_ok ~committee) (payloads k) in
  let vp = verify 0 and vv = verify 1 and vc = verify 2 in
  let quorum = Committee.quorum committee in
  let ck_ok = Checkpoint.verify ~cluster_seed ~quorum checkpoint in
  let ck = measure (Checkpoint.verify ~cluster_seed ~quorum) [ checkpoint ] in
  let bytes =
    match encoded with
    | [] -> 0.0
    | l ->
      float_of_int (List.fold_left (fun acc s -> acc + String.length s) 0 l)
      /. float_of_int (List.length l)
  in
  {
    metrics =
      [
        ("codec.encode_ns_per_msg", enc.ns_per_op);
        ("codec.encode_words_per_msg", enc.words_per_op);
        ("codec.decode_ns_per_msg", dec.ns_per_op);
        ("codec.decode_words_per_msg", dec.words_per_op);
        ("codec.bytes_per_msg", bytes);
        ("crypto.verify_ns.proposal", vp.ns_per_op);
        ("crypto.verify_ns.vote", vv.ns_per_op);
        ("crypto.verify_ns.certificate", vc.ns_per_op);
        ("crypto.verify_words.proposal", vp.words_per_op);
        ("crypto.verify_words.vote", vv.words_per_op);
        ("crypto.verify_words.certificate", vc.words_per_op);
        ("storage.ck_verify_ns", ck.ns_per_op);
      ];
    replay_ok = decoded_ok && signatures_ok && ck_ok;
    verify_ns = [| vp.ns_per_op; vv.ns_per_op; vc.ns_per_op |];
  }
