(* Bounded-memory lifecycle tests: WAL segment rotation/truncation edge
   cases, commit-certified checkpoint certification and forgery refusal,
   the store's logical-vs-physical pruning floors, the catch-up sync
   protocol's paging and peer rotation, and the end-to-end properties the
   lifecycle promises — a checkpointed crash-recover that restarts from
   the latest certified checkpoint in O(gap) sync messages, and commit
   sequences byte-identical with checkpointing on vs off. *)

module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Batch = Shoalpp_workload.Batch
module Transaction = Shoalpp_workload.Transaction
module Wal = Shoalpp_storage.Wal
module Checkpoint = Shoalpp_storage.Checkpoint
module Sync = Shoalpp_sync.Sync
module Engine = Shoalpp_sim.Engine
module Trace = Shoalpp_sim.Trace
module Faults = Shoalpp_sim.Faults
module E = Shoalpp_runtime.Experiment
module Cluster = Shoalpp_runtime.Cluster
module Commit_log = Shoalpp_runtime.Commit_log
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Telemetry = Shoalpp_support.Telemetry

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_sl = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* WAL segment rotation and truncation.                                *)

let make_wal engine = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:5.0 ~retain:true ()

let append_synced engine wal payload =
  Wal.append wal ~size:(String.length payload) ~payload (fun () -> ());
  Engine.run ~until:(Engine.now engine +. 50.0) engine

let test_wal_segment_boundary_replay () =
  let engine = Engine.create () in
  let wal = make_wal engine in
  append_synced engine wal "a";
  append_synced engine wal "b";
  checki "first rotation opens segment 1" 1 (Wal.rotate wal);
  append_synced engine wal "c";
  append_synced engine wal "d";
  checki "second rotation opens segment 2" 2 (Wal.rotate wal);
  append_synced engine wal "e";
  (* Replay crosses both segment boundaries, in append order. *)
  check_sl "replay spans all segments" [ "a"; "b"; "c"; "d"; "e" ] (Wal.entries wal);
  Alcotest.(check (list (pair int int)))
    "segments hold their own windows"
    [ (0, 2); (1, 2); (2, 1) ]
    (Wal.segments wal);
  checki "truncation below seg 1 drops seg 0 only" 2 (Wal.truncate_below wal ~seg:1);
  check_sl "replay resumes at the kept window" [ "c"; "d"; "e" ] (Wal.entries wal);
  (* The current segment survives any truncation point. *)
  checki "over-eager truncation spares current" 2 (Wal.truncate_below wal ~seg:99);
  check_sl "current window intact" [ "e" ] (Wal.entries wal)

let test_wal_crash_mid_rotation () =
  let engine = Engine.create () in
  let wal = make_wal engine in
  append_synced engine wal "old1";
  append_synced engine wal "old2";
  (* An append still in flight when the checkpoint rotates: its sync
     completes after the rotation, so it must land in the new segment —
     a truncation of the old window can never lose it. *)
  Wal.append wal ~size:3 ~payload:"new" (fun () -> ());
  ignore (Wal.rotate wal);
  Engine.run ~until:(Engine.now engine +. 50.0) engine;
  Alcotest.(check (list (pair int int)))
    "in-flight append lands in the rotated-to segment"
    [ (0, 2); (1, 1) ]
    (Wal.segments wal);
  (* Crash between rotation and truncation: both windows are still
     retained, so replay sees a superset of the certified window — safe
     (re-orders are idempotent), never a gap. *)
  check_sl "both windows replayable before truncation" [ "old1"; "old2"; "new" ] (Wal.entries wal);
  checki "completing the interrupted truncation" 2 (Wal.truncate_below wal ~seg:1);
  check_sl "post-truncation replay" [ "new" ] (Wal.entries wal)

(* ------------------------------------------------------------------ *)
(* Checkpoint certification: roundtrip, forgery refusal.               *)

let cluster_seed = 77
let n = 4

let candidate =
  {
    Checkpoint.seq = 41;
    lanes =
      [
        { Checkpoint.dag_id = 0; round = 14; resume = "blob0" };
        { Checkpoint.dag_id = 1; round = 13; resume = "blob1" };
        { Checkpoint.dag_id = 2; round = 13; resume = "" };
      ];
    state = Digest32.of_string "state-after-42-segments";
  }

let votes_for c signers =
  List.map
    (fun r ->
      let kp = Signer.keygen ~cluster_seed ~replica:r in
      (Signer.public kp, Checkpoint.sign kp c))
    signers

let test_checkpoint_roundtrip () =
  let ck = Checkpoint.certify ~n candidate (votes_for candidate [ 0; 1; 3 ]) in
  checkb "fresh cert verifies" true (Checkpoint.verify ~cluster_seed ~quorum:3 ck);
  let ck' = Checkpoint.decode ~keys:(Signer.registry ~cluster_seed ~n) (Checkpoint.encode ck) in
  checki "seq roundtrips" (Checkpoint.seq ck) (Checkpoint.seq ck');
  checkb "state roundtrips" true (Digest32.equal (Checkpoint.state ck) (Checkpoint.state ck'));
  checkb "lanes roundtrip" true (Checkpoint.lanes ck = Checkpoint.lanes ck');
  checkb "decoded cert verifies" true (Checkpoint.verify ~cluster_seed ~quorum:3 ck');
  (* wire_size models transport cost (candidate + multisig); the compact
     encoding regenerates the aggregate on decode, so it is never larger. *)
  checkb "wire size covers encoding" true
    (Checkpoint.wire_size ck >= String.length (Checkpoint.encode ck))

(* A checkpoint whose certificate does not verify must never authorize
   pruning — these are the refusal cases [Replica]'s adopt/install paths
   gate on. *)
let test_checkpoint_forgery_refused () =
  (* Votes cast over a different candidate (wrong digest): the aggregate
     cannot verify against the claimed one. *)
  let other = { candidate with Checkpoint.seq = candidate.Checkpoint.seq + 1 } in
  let forged = Checkpoint.certify ~n candidate (votes_for other [ 0; 1; 3 ]) in
  checkb "tampered-digest cert refused" false (Checkpoint.verify ~cluster_seed ~quorum:3 forged);
  (* Sub-quorum signer bitmap. *)
  let thin = Checkpoint.certify ~n candidate (votes_for candidate [ 0; 2 ]) in
  checkb "sub-quorum cert refused" false (Checkpoint.verify ~cluster_seed ~quorum:3 thin);
  (* A signer outside the registry is rejected at aggregation. *)
  checkb "out-of-range signer rejected" true
    (match Checkpoint.certify ~n candidate (votes_for candidate [ 0; 1; 9 ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Store: logical floor vs retain-gated physical floor.                *)

let committee = Committee.make ~n ~cluster_seed ()

let make_batch ids =
  Batch.make
    ~txns:(List.map (fun id -> Transaction.make ~id ~submitted_at:0.0 ~origin:0 ()) ids)
    ~created_at:0.0

let make_certified ~round ~author =
  let batch = make_batch [] in
  let digest =
    Types.node_digest ~round ~author ~batch_digest:batch.Batch.digest ~parents:[]
      ~weak_parents:[]
  in
  let kp = Committee.keypair committee author in
  let node =
    {
      Types.round;
      author;
      batch;
      parents = [];
      weak_parents = [];
      digest;
      signature = Signer.sign kp (Digest32.raw digest);
      created_at = 0.0;
    }
  in
  let preimage = Types.vote_preimage ~round ~author ~digest in
  let sigs =
    List.init (Committee.quorum committee) (fun i ->
        (i, Signer.sign (Committee.keypair committee i) preimage))
  in
  {
    Types.cn_node = node;
    cn_cert =
      {
        Types.cert_ref = Types.ref_of_node node;
        multisig = Multisig.aggregate ~n:committee.Committee.n sigs;
      };
  }

let filled_store ~rounds =
  let store = Store.create ~n ~genesis_digest:(Digest32.of_string "genesis") in
  for round = 0 to rounds - 1 do
    for author = 0 to n - 1 do
      ignore (Store.add_certified store (make_certified ~round ~author))
    done
  done;
  store

let test_store_retain_gate () =
  (* No gate: pruning deletes immediately (the pre-checkpoint behavior). *)
  let plain = filled_store ~rounds:6 in
  checki "ungated prune deletes" (3 * n) (Store.prune_below plain ~round:3);
  checki "ungated floors coincide" 3 (Store.lowest_stored plain);
  (* Gate at 0 (installed at startup when checkpointing is on): the
     logical floor advances, physical deletion is deferred. *)
  let gated = filled_store ~rounds:6 in
  checki "gate install sweeps nothing" 0 (Store.set_retain_gate gated ~round:0);
  checki "gated prune deletes nothing" 0 (Store.prune_below gated ~round:3);
  checki "logical floor advanced" 3 (Store.lowest_retained gated);
  checki "physical floor held" 0 (Store.lowest_stored gated);
  checkb "gated rounds still serveable" true (Store.nodes_at gated ~round:1 <> []);
  (* Raising the gate (a checkpoint certified) sweeps the deferred rounds. *)
  checki "gate raise sweeps deferred rounds" (2 * n) (Store.set_retain_gate gated ~round:2);
  checki "physical floor at gate" 2 (Store.lowest_stored gated);
  (* The gate never deletes above the logical floor, even when the
     certified frontier is ahead of it. *)
  checki "gate beyond floor sweeps to floor only" n (Store.set_retain_gate gated ~round:5);
  checki "physical floor capped at logical" 3 (Store.lowest_stored gated);
  checkb "rounds above logical floor intact" true (Store.nodes_at gated ~round:3 <> [])

(* ------------------------------------------------------------------ *)
(* Sync protocol: paging, floors, O(gap) requests, peer rotation.      *)

let test_sync_server_pages_whole_rounds () =
  let store = filled_store ~rounds:10 in
  let server = Sync.Server.create ~page:8 ~store ~checkpoint:(fun () -> Some "ckblob") () in
  (match Sync.Server.handle server Types.Get_highest_round with
  | Types.Highest_round { hr_highest; hr_lowest } ->
    checki "highest" 9 hr_highest;
    checki "lowest" 0 hr_lowest
  | _ -> Alcotest.fail "expected Highest_round");
  (match
     Sync.Server.handle server
       (Types.Get_certificates_in_range { sr_from = 4; sr_to = 9; sr_cursor = 4 })
   with
  | Types.Certificates { sc_certs; sc_has_more; sc_next } ->
    checki "page holds whole rounds" 8 (List.length sc_certs);
    checkb "more to come" true sc_has_more;
    checki "cursor is a round number" 6 sc_next
  | _ -> Alcotest.fail "expected Certificates");
  (* Known refs are filtered out of a missing-certs page. *)
  let known = [ Types.ref_of_node (make_certified ~round:4 ~author:0).Types.cn_node ] in
  (match
     Sync.Server.handle server
       (Types.Get_missing_certificates { sm_from = 4; sm_to = 4; sm_known = known })
   with
  | Types.Certificates { sc_certs; _ } -> checki "known ref excluded" (n - 1) (List.length sc_certs)
  | _ -> Alcotest.fail "expected Certificates");
  match Sync.Server.handle server Types.Get_checkpoint with
  | Types.Checkpoint_blob { cb_blob } ->
    Alcotest.(check (option string)) "checkpoint blob served" (Some "ckblob") cb_blob
  | _ -> Alcotest.fail "expected Checkpoint_blob"

let test_sync_server_respects_physical_floor () =
  let store = filled_store ~rounds:10 in
  ignore (Store.set_retain_gate store ~round:0);
  ignore (Store.prune_below store ~round:4);
  let server = Sync.Server.create ~store ~checkpoint:(fun () -> None) () in
  (* Gate defers deletion: the logically-pruned window is still served. *)
  (match Sync.Server.handle server Types.Get_highest_round with
  | Types.Highest_round { hr_lowest; _ } -> checki "serves gated window" 0 hr_lowest
  | _ -> Alcotest.fail "expected Highest_round");
  ignore (Store.set_retain_gate store ~round:4);
  match Sync.Server.handle server Types.Get_highest_round with
  | Types.Highest_round { hr_lowest; _ } -> checki "floor after sweep" 4 hr_lowest
  | _ -> Alcotest.fail "expected Highest_round"

let test_sync_client_o_gap_requests () =
  let store = filled_store ~rounds:10 in
  let server = Sync.Server.create ~page:8 ~store ~checkpoint:(fun () -> None) () in
  let ingested = ref 0 in
  let client_ref = ref None in
  let caught_up = ref false in
  let hooks =
    {
      Sync.Client.send =
        (fun ~dst:_ req ->
          let resp = Sync.Server.handle server req in
          match !client_ref with
          | Some c -> Sync.Client.handle_response c resp
          | None -> Alcotest.fail "client not ready");
      ingest = (fun _ -> incr ingested);
      schedule = (fun ~after:_ _ -> () (* no silence: retries never fire *));
      on_caught_up = (fun () -> caught_up := true);
    }
  in
  let client = Sync.Client.create ~n ~self:0 hooks in
  client_ref := Some client;
  Sync.Client.start client ~from:4;
  checkb "caught up" true !caught_up;
  (* Gap = rounds 4..9 (24 certs): one probe + 3 pages of 8 — O(gap),
     not O(history). *)
  checki "requests are O(gap)" 4 (Sync.Client.requests_sent client);
  checki "exactly the gap ingested" 24 !ingested;
  checki "client counts ingests" 24 (Sync.Client.certs_ingested client)

let test_sync_client_rotates_on_no_progress () =
  let sent = ref [] in
  let client_ref = ref None in
  let hooks =
    {
      Sync.Client.send = (fun ~dst req -> sent := (dst, req) :: !sent);
      ingest = ignore;
      schedule = (fun ~after:_ _ -> ());
      on_caught_up = ignore;
    }
  in
  let client = Sync.Client.create ~n ~self:0 hooks in
  client_ref := Some client;
  ignore !client_ref;
  Sync.Client.start client ~from:0;
  (match !sent with [ (dst, Types.Get_highest_round) ] -> checki "probe to first peer" 1 dst | _ -> Alcotest.fail "expected one probe");
  Sync.Client.handle_response client
    (Types.Highest_round { hr_highest = 5; hr_lowest = 0 });
  (* A page that advances nothing: the responder pruned the range or lags;
     the client must rotate to another peer rather than loop. *)
  Sync.Client.handle_response client
    (Types.Certificates { sc_certs = []; sc_has_more = true; sc_next = 0 });
  (match !sent with
  | (dst, Types.Get_certificates_in_range _) :: _ -> checki "rotated to next peer" 2 dst
  | _ -> Alcotest.fail "expected a re-sent range request");
  (* The probe's floor fast-forwards the client past pruned history. *)
  let client2 = Sync.Client.create ~n ~self:0 hooks in
  Sync.Client.start client2 ~from:0;
  Sync.Client.handle_response client2
    (Types.Highest_round { hr_highest = 9; hr_lowest = 6 });
  match !sent with
  | (_, Types.Get_certificates_in_range { sr_from; _ }) :: _ ->
    checki "skips certificate-vouched prefix" 6 sr_from
  | _ -> Alcotest.fail "expected a range request"

(* ------------------------------------------------------------------ *)
(* End-to-end: checkpointed crash-recover restarts from the latest
   certified checkpoint and catches up in O(gap) sync messages.        *)

let test_checkpointed_crash_recover () =
  let committee = Committee.make ~n:4 ~cluster_seed:9 () in
  let protocol =
    Config.with_checkpoint_interval
      (Config.without_signature_checks (Config.shoalpp ~committee))
      12
  in
  let setup =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.topology = Shoalpp_sim.Topology.clique ~regions:2 ~one_way_ms:20.0;
      scenario = Faults.crash_recover ~count:1 ~at:3_000.0 ~recover_at:8_000.0 ();
      load_tps = 300.0;
      seed = 3;
    }
  in
  let cluster = Cluster.create setup in
  Cluster.run cluster ~duration_ms:14_000.0;
  let audit = Cluster.audit cluster in
  checkb "prefixes consistent" true audit.Commit_log.consistent_prefixes;
  checki "no duplicate orders" 0 audit.Commit_log.duplicate_orders;
  checkb "recovery prefix ok" true audit.Commit_log.recovery_prefix_ok;
  let r = (Cluster.replicas cluster).(3) in
  checkb "restarted from a checkpoint, not genesis" true (Replica.base_seq r > 0);
  checkb "adopted checkpoint is certified" true
    (match Replica.latest_checkpoint r with
    | Some ck -> Checkpoint.verify ~cluster_seed:9 ~quorum:(Committee.quorum committee) ck
    | None -> false);
  checkb "caught up" false (Replica.catching_up r);
  let requests, certs = Replica.sync_stats r in
  let lanes = List.length (Replica.driver_stats r) in
  checkb "sync ran on every lane" true (requests >= lanes);
  (* O(gap): a probe plus a handful of pages per lane — far below the
     full-history certificate count. *)
  checkb "requests O(gap)" true (requests <= 10 * lanes);
  checkb "certs ingested" true (certs > 0);
  let served =
    Array.fold_left (fun acc r -> acc + Replica.sync_requests_served r) 0 (Cluster.replicas cluster)
  in
  checkb "peers served the requests" true (served >= requests)

(* Boundaries fall on merge turn ends, so a checkpoint may end on any
   lane. A replica restored from one that ends on lane 0 or 1 must resume
   the round-robin on the lane after it, with no turn under way, go on
   ordering exactly what its peers ordered, and agree with them on later
   boundaries. *)
let test_restore_from_mid_cycle_boundary () =
  let committee = Committee.make ~n:4 ~cluster_seed:9 () in
  let protocol =
    Config.with_checkpoint_interval
      (Config.without_signature_checks (Config.shoalpp ~committee))
      4
  in
  let trace = Trace.create ~enabled:true ~capacity:2_000_000 () in
  let setup =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.topology = Shoalpp_sim.Topology.clique ~regions:2 ~one_way_ms:20.0;
      scenario = Faults.crash_recover ~count:1 ~at:3_000.0 ~recover_at:8_000.0 ();
      load_tps = 300.0;
      seed = 1;
      trace = Some trace;
    }
  in
  let cluster = Cluster.create setup in
  Cluster.run cluster ~duration_ms:14_000.0;
  let audit = Cluster.audit cluster in
  checkb "prefixes consistent" true audit.Commit_log.consistent_prefixes;
  checki "no duplicate orders" 0 audit.Commit_log.duplicate_orders;
  checkb "recovery prefix ok" true audit.Commit_log.recovery_prefix_ok;
  let base = Replica.base_seq (Cluster.replicas cluster).(3) in
  checkb "restarted from a checkpoint" true (base > 0);
  (* (lane, round, anchor) per (replica, seq); the restarted replica's
     pre-crash entries are overwritten by its post-restart ones. *)
  let at = Hashtbl.create 4096 in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.kind with
      | Trace.Segment_interleaved { global_seq; round; anchor; _ } ->
        Hashtbl.replace at (ev.Trace.replica, global_seq) (ev.Trace.instance, round, anchor)
      | _ -> ())
    (Trace.events trace);
  let lane_of r seq = match Hashtbl.find_opt at (r, seq) with Some (l, _, _) -> l | None -> -1 in
  let boundary_lane = lane_of 0 (base - 1) in
  checkb (Printf.sprintf "boundary ends on lane %d, not the last" boundary_lane) true
    (boundary_lane >= 0 && boundary_lane < 2);
  checki "restored merge resumes on the next lane" ((boundary_lane + 1) mod 3) (lane_of 3 base);
  let continued = ref 0 in
  let rec compare seq =
    match (Hashtbl.find_opt at (3, seq), Hashtbl.find_opt at (0, seq)) with
    | Some mine, Some peer ->
      if mine <> peer then Alcotest.failf "seq %d differs from replica 0" seq;
      incr continued;
      compare (seq + 1)
    | _ -> ()
  in
  compare base;
  checkb (Printf.sprintf "restored log continued (%d segments)" !continued) true (!continued > 100);
  (* A lane-round can reach C = 4 segments, so the next boundary may come
     before every lane merged again: the restored per-lane snapshots must
     place it where the peers do. Replica 3 then certifies every boundary
     replica 0 certified from its restart on (bar one at the run's end). *)
  let certified r =
    List.filter_map
      (fun (ev : Trace.event) ->
        match ev.Trace.kind with
        | Trace.Checkpoint_certified { seq; _ } when ev.Trace.replica = r && seq >= base -> Some seq
        | _ -> None)
      (Trace.events trace)
  in
  let mine = certified 3 and peer = certified 0 in
  let missed = List.filter (fun seq -> not (List.mem seq mine)) peer in
  checkb
    (Printf.sprintf "replica 3 certified %d boundaries, missed %d of replica 0's %d"
       (List.length mine) (List.length missed) (List.length peer))
    true
    (List.length peer > 10 && List.length missed <= 1)

(* ------------------------------------------------------------------ *)
(* Golden determinism: the ordered commit stream is byte-identical with
   checkpointing/pruning on vs off at the same seed.                   *)

let commit_stream events =
  List.filter_map
    (fun (ev : Trace.event) ->
      match ev.Trace.kind with
      | Trace.Segment_interleaved { global_seq; round; anchor; txns } ->
        Some (ev.Trace.replica, ev.Trace.instance, global_seq, round, anchor, txns)
      | _ -> None)
    events

let test_golden_determinism_on_vs_off () =
  let params interval =
    {
      E.default_params with
      E.n = 4;
      load_tps = 300.0;
      duration_ms = 8_000.0;
      warmup_ms = 1_000.0;
      topology = E.Clique (2, 20.0);
      verify_signatures = false;
      checkpoint_interval = interval;
      seed = 11;
      trace = true;
      trace_capacity = 2_000_000;
    }
  in
  let on = E.run E.Shoalpp (params 12) in
  let off = E.run E.Shoalpp (params 0) in
  checkb "both audits pass" true (on.E.audit_ok && off.E.audit_ok);
  let son = commit_stream on.E.events and soff = commit_stream off.E.events in
  checkb "streams non-empty" true (son <> []);
  checki "same length" (List.length soff) (List.length son);
  checkb "commit streams identical" true (son = soff);
  (* Pruning actually ran in the checkpointed run. *)
  let snap = on.E.report.Shoalpp_runtime.Report.telemetry in
  checkb "checkpoints certified" true (Telemetry.snap_counter snap "ck.certified" > 0);
  checkb "vertices pruned" true (Telemetry.snap_counter snap "gc.pruned_vertices" > 0)

(* ------------------------------------------------------------------ *)
(* The checkpoint knob does what it says: every boundary the merge
   reaches certifies, not only those whose votes beat the next boundary.
   At n=10 on gcp10 votes take longer than a C=12 window, which the
   n=4 clique above never shows.                                       *)

let test_every_boundary_certifies () =
  let interval = 12 in
  let p =
    {
      E.default_params with
      E.n = 10;
      load_tps = 500.0;
      duration_ms = 5_000.0;
      topology = E.Gcp10;
      verify_signatures = false;
      checkpoint_interval = interval;
    }
  in
  (* [E.run]'s cluster, kept to read each replica's boundary count. *)
  let trace = Trace.create ~enabled:true ~capacity:2_000_000 () in
  let setup =
    {
      (Cluster.default_setup ~protocol:(E.dag_config E.Shoalpp p)) with
      Cluster.topology = E.make_topology p.E.topology;
      load_tps = p.E.load_tps;
      warmup_ms = p.E.warmup_ms;
      seed = p.E.seed;
      trace = Some trace;
    }
  in
  let cluster = Cluster.create setup in
  Cluster.run cluster ~duration_ms:p.E.duration_ms;
  let audit = Cluster.audit cluster in
  checkb "audit passes" true
    (audit.Commit_log.consistent_prefixes && audit.Commit_log.duplicate_orders = 0);
  let certified = Array.make p.E.n 0 in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.kind with
      | Trace.Checkpoint_certified _ ->
        certified.(ev.Trace.replica) <- certified.(ev.Trace.replica) + 1
      | _ -> ())
    (Trace.events trace);
  let boundaries = Array.map Replica.checkpoint_boundaries (Cluster.replicas cluster) in
  (* Only a replica's last boundary may still wait for its votes when the
     run ends. *)
  Array.iteri
    (fun i b ->
      checkb (Printf.sprintf "replica %d reached %d boundaries" i b) true (b >= 10);
      checkb
        (Printf.sprintf "replica %d certified %d of %d boundaries" i certified.(i) b)
        true
        (certified.(i) >= b - 1))
    boundaries;
  let snap = (Cluster.report cluster ~duration_ms:p.E.duration_ms).Shoalpp_runtime.Report.telemetry in
  checki "ck.boundaries counts every boundary" (Array.fold_left ( + ) 0 boundaries)
    (Telemetry.snap_counter snap "ck.boundaries");
  checki "ck.certified counts every certificate" (Array.fold_left ( + ) 0 certified)
    (Telemetry.snap_counter snap "ck.certified")

(* Four replicas whose control plane swallows every checkpoint vote
   (keeping it for the test): merges reach boundaries, nothing certifies
   until votes are delivered by hand through [Replica.deliver]. *)
let test_crafted_checkpoint_votes () =
  let module Backend = Shoalpp_backend.Backend in
  let module Backend_sim = Shoalpp_backend.Backend_sim in
  let module Topology = Shoalpp_sim.Topology in
  let n = 4 and interval = 12 in
  let committee = Committee.make ~n ~cluster_seed:9 () in
  let protocol =
    Config.with_checkpoint_interval
      (Config.without_signature_checks (Config.shoalpp ~committee))
      interval
  in
  let topology = Topology.clique ~regions:2 ~one_way_ms:20.0 in
  let world =
    Backend_sim.make ~topology ~assignment:(Topology.assign_round_robin topology ~n)
      ~fault:Shoalpp_sim.Fault_schedule.none ~config:Backend_sim.default_net_config ~seed:3 ()
  in
  let captured = ref [] in
  let backend =
    let b = Backend_sim.backend world in
    let mute =
      {
        b.Backend.transport with
        Backend.Transport.broadcast =
          (fun ~src:_ ~size:_ ~include_self:_ (env : Replica.envelope) ->
            captured := env.Replica.payload :: !captured);
      }
    in
    { b with Backend.control = Some mute }
  in
  let telemetry = Telemetry.create () in
  let replicas =
    Array.init n (fun replica_id ->
        Replica.create ~config:protocol ~replica_id ~backend ~mempool:(Shoalpp_workload.Mempool.create ())
          ~telemetry ())
  in
  Array.iter Replica.start replicas;
  Backend_sim.run ~until:4_000.0 world;
  let r = replicas.(0) in
  let counter name = Telemetry.get_counter telemetry name in
  checki "nothing certified without votes" 0 (counter "ck.certified");
  checkb "replica 0 passed several boundaries" true (Replica.log_length r > 3 * interval);
  let real_vote ~seq ~voter =
    List.find_map
      (function
        | Types.Checkpoint_vote { ck_seq; ck_voter; _ } as v when ck_seq = seq && ck_voter = voter ->
          Some v
        | _ -> None)
      !captured
    |> Option.get
  in
  let digest_at seq =
    match real_vote ~seq ~voter:1 with
    | Types.Checkpoint_vote { ck_digest; _ } -> ck_digest
    | _ -> assert false
  in
  let forged ~seq ~voter ck_digest =
    Types.Checkpoint_vote
      {
        ck_seq = seq;
        ck_digest;
        ck_voter = voter;
        ck_signature =
          Signer.sign (Committee.keypair committee voter) (Checkpoint.preimage_of_digest ck_digest);
      }
  in
  let deliver msg = Replica.deliver r ~dag_id:Replica.control_dag_id ~src:1 msg in
  (* Let the checkpoint device's writes sync. *)
  let settle () = Backend_sim.run ~until:(Backend_sim.now world +. 50.0) world in
  (* Boundaries are merge turn ends at least [interval] segments apart:
     read their seqs off the votes replica 1 cast. *)
  let boundaries =
    List.sort_uniq Int.compare
      (List.filter_map
         (function
           | Types.Checkpoint_vote { ck_seq; ck_voter = 1; _ } -> Some ck_seq
           | _ -> None)
         !captured)
  in
  let first, second, third =
    match boundaries with
    | a :: b :: c :: _ -> (a, b, c)
    | _ -> Alcotest.fail "expected three boundaries"
  in
  checkb "boundaries at least an interval apart" true
    (first >= interval - 1 && second - first >= interval && third - second >= interval);
  (* Correctly signed quorums at a non-boundary seq the merge has passed,
     and beyond the horizon, are dropped and counted. *)
  checkb "first + 1 is a passed non-boundary" true
    (first + 1 < second && first + 1 < Replica.log_length r);
  for voter = 0 to n - 1 do
    deliver (forged ~seq:(first + 1) ~voter (digest_at first));
    deliver (forged ~seq:((1_000 * interval) - 1) ~voter (digest_at first))
  done;
  checki "non-boundary and beyond-horizon votes dropped" (2 * n) (counter "ck.votes_dropped");
  (* One voter repeating itself is one vote, never a quorum. *)
  for _ = 1 to n do
    deliver (real_vote ~seq:first ~voter:1)
  done;
  checki "repeats never certify" 0 (counter "ck.certified");
  (* A pending boundary behind the newest one still certifies... *)
  deliver (real_vote ~seq:first ~voter:2);
  deliver (real_vote ~seq:first ~voter:3);
  checki "older pending boundary certified" 1 (counter "ck.certified");
  settle ();
  checki "at its own seq" first
    (Option.fold ~none:(-1) ~some:Checkpoint.seq (Replica.latest_checkpoint r));
  (* ...then the next, and votes at or below the certified seq are stale. *)
  List.iter (fun voter -> deliver (real_vote ~seq:second ~voter)) [ 1; 2; 3 ];
  checki "next boundary certified" 2 (counter "ck.certified");
  settle ();
  checki "latest is the next boundary" second
    (Option.fold ~none:(-1) ~some:Checkpoint.seq (Replica.latest_checkpoint r));
  let dropped = counter "ck.votes_dropped" in
  deliver (real_vote ~seq:first ~voter:0);
  checki "stale vote dropped" (dropped + 1) (counter "ck.votes_dropped");
  (* A bad signature at an admissible boundary is still rejected. *)
  deliver
    (match forged ~seq:third ~voter:2 (digest_at third) with
    | Types.Checkpoint_vote v -> Types.Checkpoint_vote { v with ck_voter = 3 }
    | m -> m);
  checki "bad signature rejected" 1 (counter "ck.votes_rejected");
  checki "and not counted as dropped" (dropped + 1) (counter "ck.votes_dropped");
  (* The checkpoint device keeps only the two newest certificates. *)
  List.iter (fun voter -> deliver (real_vote ~seq:third ~voter)) [ 1; 2; 3 ];
  checki "third boundary certified" 3 (counter "ck.certified");
  settle ();
  let kept =
    List.map
      (fun blob -> Checkpoint.seq (Checkpoint.decode ~keys:committee.Committee.keys blob))
      (Wal.entries (Option.get (Replica.checkpoint_wal r)))
  in
  Alcotest.(check (list int)) "device holds the two newest" [ second; third ] kept;
  (* A quorum for a seq ahead of the merge is held until the merge passes
     it; it was no boundary, so its votes are dropped then, uncertified. *)
  let ahead = Replica.log_length r + 1 in
  let dropped = counter "ck.votes_dropped" in
  for voter = 0 to n - 1 do
    deliver (forged ~seq:ahead ~voter (digest_at third))
  done;
  checki "votes ahead of the merge held" dropped (counter "ck.votes_dropped");
  Backend_sim.run ~until:(Backend_sim.now world +. 2_000.0) world;
  let own_votes =
    List.filter_map
      (function
        | Types.Checkpoint_vote { ck_seq; ck_voter = 0; _ } -> Some ck_seq
        | _ -> None)
      !captured
  in
  checkb "that seq was no boundary" false (List.mem ahead own_votes);
  checkb "the merge passed it to a later boundary" true (List.exists (fun s -> s > ahead) own_votes);
  checki "held votes dropped once passed" (dropped + n) (counter "ck.votes_dropped");
  checki "and never certified" 3 (counter "ck.certified")

let suite =
  [
    ( "storage.lifecycle",
      [
        Alcotest.test_case "wal replay across segment boundary" `Quick test_wal_segment_boundary_replay;
        Alcotest.test_case "wal crash mid-rotation" `Quick test_wal_crash_mid_rotation;
        Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "forged checkpoint refused" `Quick test_checkpoint_forgery_refused;
        Alcotest.test_case "store retain gate" `Quick test_store_retain_gate;
        Alcotest.test_case "sync server pages whole rounds" `Quick test_sync_server_pages_whole_rounds;
        Alcotest.test_case "sync server respects physical floor" `Quick test_sync_server_respects_physical_floor;
        Alcotest.test_case "sync client O(gap) requests" `Quick test_sync_client_o_gap_requests;
        Alcotest.test_case "sync client rotates on no-progress" `Quick test_sync_client_rotates_on_no_progress;
        Alcotest.test_case "checkpointed crash-recover" `Slow test_checkpointed_crash_recover;
        Alcotest.test_case "restore from a mid-cycle boundary" `Slow test_restore_from_mid_cycle_boundary;
        Alcotest.test_case "determinism: checkpointing on vs off" `Slow test_golden_determinism_on_vs_off;
        Alcotest.test_case "every boundary certifies" `Slow test_every_boundary_certifies;
        Alcotest.test_case "crafted checkpoint votes" `Quick test_crafted_checkpoint_votes;
      ] );
  ]
