module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Instance = Shoalpp_dag.Instance
module Committee = Shoalpp_dag.Committee
module Driver = Shoalpp_consensus.Driver
module Backend = Shoalpp_backend.Backend
module Faults = Shoalpp_sim.Faults
module Mempool = Shoalpp_workload.Mempool
module Wal = Shoalpp_storage.Wal
module Batch = Shoalpp_workload.Batch
module Obs = Shoalpp_sim.Obs
module Trace = Shoalpp_sim.Trace
module Telemetry = Shoalpp_support.Telemetry
module Signer = Shoalpp_crypto.Signer
module Digest32 = Shoalpp_crypto.Digest32
module Multisig = Shoalpp_crypto.Multisig
module Checkpoint = Shoalpp_storage.Checkpoint
module Validation = Shoalpp_dag.Validation
module Sync = Shoalpp_sync.Sync

type envelope = { dag_id : int; payload : Types.message }

let envelope_size e = 1 + Types.message_size e.payload

(* Control-plane envelopes (checkpoint votes) ride dag id 255: routed by the
   replica itself, never handed to a DAG instance. On the simulated backend
   they travel the out-of-band control transport, which draws no RNG and
   mutates no queue cursors — the reason commit sequences stay byte-identical
   with checkpointing on or off. *)
let control_dag_id = 255

(* How far (in global sequence numbers) ahead of local progress a
   checkpoint vote may be and still be buffered rather than dropped. *)
let ck_vote_horizon = 4096

type ordered = { global_seq : int; segment : Driver.segment; ordered_at : float }

(* Multicore wiring (the realtime node's --domains mode): each DAG lane
   runs on its own executor domain, so the lane needs a backend whose
   timers fire there, an observability sink owned by that domain, and a
   way to hand cross-lane work (the sequenced commit merge) back to the
   single merge domain. Absent (the default), every lane shares the
   replica's backend and obs and [le_post_main] degenerates to immediate
   invocation — byte-for-byte the single-domain behaviour. *)
type lane_env = {
  le_backend : int -> envelope Backend.t; (* dag_id -> that lane's backend *)
  le_obs : int -> Obs.t; (* dag_id -> obs owned by that lane's domain *)
  le_post_main : (unit -> unit) -> unit; (* run on the merge domain *)
}

type dag_lane = {
  store : Store.t;
  instance : Instance.t;
  driver : Driver.t;
  ready : Driver.segment Queue.t; (* committed, awaiting interleave *)
  lane_wal : Wal.t; (* the shared replica WAL, or per-lane under lane_env *)
  server : Sync.Server.t; (* answers peers' catch-up requests from our store *)
  mutable sync_client : Sync.Client.t option; (* present while catching up *)
  mutable ck_marks : int list; (* WAL segment ids opened at checkpoints, newest first *)
}

(* One boundary awaiting certification: our own candidate and its digest
   once the merge reaches it, and the verified votes received for it so far
   (peers may vote before we get there). *)
type boundary = {
  mine : (Checkpoint.candidate * Digest32.t) option;
  votes : (int * Digest32.t * Signer.signature) list;
}

(* Checkpoint manager: runs at the Alg. 3 merge point (the only place the
   global sequence exists), so it is owned by whichever domain owns the
   merge — the main domain under [--domains N]. The certified-checkpoint
   log is a {e separate} WAL device: interleaving its writes into the
   protocol WAL would perturb the group-commit timing every vote/proposal
   persist depends on. *)
type ck_mgr = {
  ck_interval : int; (* minimum merged segments between two boundaries, > 0 *)
  ck_wal : Wal.t; (* the two newest certified checkpoints; retains payloads *)
  mutable ck_state : Digest32.t; (* running commit-stream digest *)
  mutable ck_last : int; (* seq of the latest boundary; -1 before the first *)
  mutable ck_reached : int; (* boundaries recorded since [create] *)
  ck_lane_latest : (int * string) option array;
      (* per lane: (anchor round, resume) of its last merged segment, None
         when that segment carried no snapshot *)
  ck_pending : (int, boundary) Hashtbl.t;
      (* seq above [ck_latest] -> state: a boundary we recorded, or a seq
         the merge has not reached yet *)
  mutable ck_latest : Checkpoint.t option; (* newest certified checkpoint *)
  mutable ck_main_marks : int list; (* shared-WAL rotation marks (no lane_env) *)
}

type t = {
  cfg : Config.t;
  id : int;
  backend : envelope Backend.t;
  mempool : Mempool.t;
  wal : Wal.t;
  lane_env : lane_env option;
  mutable lanes : dag_lane array;
  on_ordered : (ordered -> unit) option;
  obs : Obs.t;
  mutable next_lane : int; (* round-robin cursor of Alg. 3: whose turn it is *)
  mutable turn_round : int; (* anchor round of the turn under way; -1 = not started *)
  merge_wait : Telemetry.Histogram.t option array; (* per lane: committed -> ordered, ms *)
  merge_blocked : Telemetry.counter option array; (* per lane: drain stopped on it *)
  mutable global_seq : int;
  mutable txns_ordered : int;
  mutable requeued : int;
  committed_own : (int, unit) Hashtbl.t; (* own-origin txn ids already ordered *)
  mutable crashed : bool;
  (* Scenario-driven misbehaviour, queried at send time: None = honest. *)
  byzantine : float -> Faults.byz_kind option;
  mutable replaying : bool; (* WAL replay in progress: sends muted *)
  ck : ck_mgr option; (* Some iff checkpoint_interval > 0 *)
  mutable base_seq : int; (* first global seq of the post-recovery log (audit offset) *)
  mutable catching_up : bool; (* checkpoint probe or peer sync in progress *)
  mutable syncing_lanes : int; (* lanes whose sync client has not finished *)
  mutable ck_fetch_attempt : int; (* peer rotation for checkpoint adoption; -1 = idle *)
  on_caught_up : (unit -> unit) option;
  c_equivocations : Telemetry.counter option;
  c_withheld : Telemetry.counter option;
  c_delayed : Telemetry.counter option;
  c_crashes : Telemetry.counter option;
  c_recoveries : Telemetry.counter option;
}

(* --- commit-certified checkpoints (tentpole of the bounded-memory
   lifecycle): fold the committed stream into a running digest and, at the
   first merge turn end at least [ck_interval] segments past the previous
   boundary where every lane's last merged segment carries a driver
   snapshot, form a candidate from those snapshots, vote on its digest over
   the control plane, and certify on a quorum of matching votes. Only a
   certified checkpoint authorizes WAL rotation/truncation. All inputs are
   deterministic functions of the committed prefix, so every correct
   replica votes for the same digest. *)

let ck_fold st ~dag_id ~round ~author =
  Digest32.of_string (Printf.sprintf "%s%d/%d/%d" (Digest32.raw st) dag_id round author)

let ck_truncate t m =
  let rotate_one wal marks =
    let seg = Wal.rotate wal in
    let marks = seg :: marks in
    (match marks with
    | _cur :: prev :: _ ->
      let dropped = Wal.truncate_below wal ~seg:prev in
      if dropped > 0 then Obs.incr ~by:dropped t.obs "ck.wal_truncated_entries"
    | _ -> ());
    (* Two marks bound retention to the last two checkpoint windows: replay
       starts from the latest checkpoint, and the window before it still
       covers any round that was in flight when the boundary committed. *)
    match marks with a :: b :: _ -> [ a; b ] | l -> l
  in
  match t.lane_env with
  | None -> m.ck_main_marks <- rotate_one t.wal m.ck_main_marks
  | Some env ->
    (* Per-lane WALs belong to their lanes' domains; rotation is pure list
       bookkeeping but must not race that domain's appends. *)
    Array.iteri
      (fun dag_id lane ->
        ignore
          (Backend.schedule (env.le_backend dag_id) ~after:0.0 (fun () ->
               lane.ck_marks <- rotate_one lane.lane_wal lane.ck_marks)))
      t.lanes

(* Checkpoint-anchored physical pruning: raise each lane's retain gate to
   [ck]'s per-lane resume floor, releasing the rounds whose deletion the
   previous gate deferred. Ordering is untouched — the logical GC floor
   advances with commit progress exactly as without checkpointing — but
   physical deletion waits for certification, so a peer restoring from a
   served checkpoint can always bridge from its floor to the live rounds.
   Lane instances belong to their lanes' domains at [--domains N]. *)
let ck_apply_gates t ck =
  List.iter
    (fun (l : Checkpoint.lane) ->
      if l.Checkpoint.dag_id < Array.length t.lanes then begin
        let lane = t.lanes.(l.Checkpoint.dag_id) in
        match Driver.snapshot_floor l.Checkpoint.resume with
        | floor when floor > 0 -> (
          let apply () = Instance.set_retain_gate lane.instance ~round:floor in
          match t.lane_env with
          | None -> apply ()
          | Some env ->
            ignore (Backend.schedule (env.le_backend l.Checkpoint.dag_id) ~after:0.0 apply))
        | _ -> ()
        | exception Shoalpp_codec.Wire.Reader.Malformed _ -> ()
      end)
    (Checkpoint.lanes ck)

(* Forget every pending boundary at or below [upto]. *)
let ck_forget m ~upto =
  let doomed = Hashtbl.fold (fun s _ acc -> if s <= upto then s :: acc else acc) m.ck_pending [] in
  List.iter (Hashtbl.remove m.ck_pending) doomed

let ck_pending_entry m seq =
  Option.value (Hashtbl.find_opt m.ck_pending seq) ~default:{ mine = None; votes = [] }

let ck_install t m ck =
  (* Gates advance to the {e superseded} checkpoint's floors: retention
     always covers the last two certified checkpoints, so a peer that just
     adopted the previous one can still pull every round it needs while we
     certify the next. *)
  (match m.ck_latest with Some prev -> ck_apply_gates t prev | None -> ());
  m.ck_latest <- Some ck;
  let seq = Checkpoint.seq ck in
  ck_forget m ~upto:seq;
  (* The checkpoint device keeps the two newest certificates: recovery
     restores the newest that verifies, and the other is its fallback. *)
  ignore (Wal.truncate_below m.ck_wal ~seg:(Wal.rotate m.ck_wal - 1));
  Wal.append m.ck_wal ~size:(Checkpoint.wire_size ck) ~payload:(Checkpoint.encode ck) ignore;
  Obs.incr t.obs "ck.certified";
  Obs.set t.obs "ck.latest_seq" (float_of_int seq);
  Obs.event t.obs ~time:(Backend.now t.backend)
    (Trace.Checkpoint_certified { seq; signers = Multisig.num_signers (Checkpoint.cert ck) });
  ck_truncate t m

(* Certify boundary [seq] once our own candidate there has a quorum of
   matching votes ([Multisig.aggregate] orders the signers itself). *)
let ck_try_certify t m ~seq =
  match Hashtbl.find_opt m.ck_pending seq with
  | Some { mine = Some (cand, digest); votes } ->
    let sigs =
      List.filter_map (fun (v, d, s) -> if Digest32.equal d digest then Some (v, s) else None) votes
    in
    let committee = t.cfg.Config.committee in
    let quorum = Committee.quorum committee in
    if List.length sigs >= quorum then begin
      let ck = Checkpoint.certify ~n:committee.Committee.n cand sigs in
      (* Refuse to prune on anything but a verified certificate. *)
      if Checkpoint.verify ~cluster_seed:committee.Committee.cluster_seed ~quorum ck then
        ck_install t m ck
      else Obs.incr t.obs "ck.cert_rejected"
    end
  | _ -> ()

let handle_checkpoint_vote t ~ck_seq ~ck_digest ~ck_voter ~ck_signature =
  match t.ck with
  | None -> ()
  | Some m ->
    let latest = match m.ck_latest with Some ck -> Checkpoint.seq ck | None -> -1 in
    let committee = t.cfg.Config.committee in
    (* Admit votes for boundary seqs above the last certified checkpoint, up
       to a fixed horizon ahead of our merge position or that checkpoint,
       whichever is further. Anchoring to [ck_latest] matters under real
       time: replicas drift by more than a few intervals, and a vote dropped
       here is never re-sent, so a horizon relative only to [global_seq]
       could stall certification (and checkpoint-anchored pruning)
       cluster-wide. Seqs ahead of the merge are admitted before we know
       whether they are boundaries, so the table holds at most one entry per
       seq below the horizon (about [ck_vote_horizon + 4 * interval]
       entries) of at most [n] votes each; [ck_boundary] drops the entries
       the merge passed without a boundary. *)
    let horizon = max t.global_seq (latest + 1) + ck_vote_horizon + (4 * m.ck_interval) in
    (* Boundaries are known only once the merge reaches them: a seq the
       merge has passed is admissible only if we recorded a boundary there. *)
    let boundary_or_ahead =
      ck_seq >= t.global_seq
      || match Hashtbl.find_opt m.ck_pending ck_seq with
         | Some { mine = Some _; _ } -> true
         | _ -> false
    in
    if not (ck_seq > latest && ck_seq < horizon && boundary_or_ahead) then
      Obs.incr t.obs "ck.votes_dropped"
    else if Committee.valid_replica committee ck_voter then begin
      if Validation.checkpoint_vote_signature_ok ~committee ~ck_digest ~ck_voter ~ck_signature
      then begin
        let b = ck_pending_entry m ck_seq in
        if not (List.exists (fun (v, _, _) -> Int.equal v ck_voter) b.votes) then begin
          Hashtbl.replace m.ck_pending ck_seq
            { b with votes = (ck_voter, ck_digest, ck_signature) :: b.votes };
          ck_try_certify t m ~seq:ck_seq
        end
      end
      else Obs.incr t.obs "ck.votes_rejected"
    end

(* Boundary [seq] closes lane [last]'s turn. The candidate lists the lanes
   in merge turn order ending with [last], so a restore resumes the
   round-robin on the lane after it. *)
let ck_boundary t m ~seq ~last =
  Obs.incr t.obs "ck.boundaries";
  m.ck_last <- seq;
  m.ck_reached <- m.ck_reached + 1;
  let k = Array.length m.ck_lane_latest in
  let lanes =
    List.init k (fun j ->
        let dag_id = (last + 1 + j) mod k in
        match m.ck_lane_latest.(dag_id) with
        | Some (round, resume) -> { Checkpoint.dag_id; round; resume }
        | None -> assert false (* [ck_observe] checked every lane *))
  in
  let cand = { Checkpoint.seq; lanes; state = m.ck_state } in
  let digest = Checkpoint.digest cand in
  (* A boundary a whole vote horizon behind this one is superseded by any
     later certificate; forgetting it keeps the table bounded even if
     certification stalls. Entries the merge passed without a boundary of
     ours can never certify: their votes count as dropped. *)
  ck_forget m ~upto:(seq - ck_vote_horizon - (4 * m.ck_interval));
  let passed =
    Hashtbl.fold
      (fun s b acc -> if s < seq && Option.is_none b.mine then (s, List.length b.votes) :: acc else acc)
      m.ck_pending []
  in
  List.iter
    (fun (s, votes) ->
      Hashtbl.remove m.ck_pending s;
      Obs.incr ~by:votes t.obs "ck.votes_dropped")
    passed;
  Hashtbl.replace m.ck_pending seq { (ck_pending_entry m seq) with mine = Some (cand, digest) };
  if not t.replaying then begin
    let kp = Committee.keypair t.cfg.Config.committee t.id in
    let payload =
      Types.Checkpoint_vote
        {
          ck_seq = seq;
          ck_digest = digest;
          ck_voter = t.id;
          ck_signature = Signer.sign kp (Checkpoint.preimage_of_digest digest);
        }
    in
    let env = { dag_id = control_dag_id; payload } in
    Backend.control_broadcast t.backend ~src:t.id ~size:(envelope_size env) env
  end;
  (* faster peers' votes may already be buffered *)
  ck_try_certify t m ~seq

let ck_observe t ~seq (segment : Driver.segment) =
  match t.ck with
  | None -> ()
  | Some m ->
    let anchor = segment.Driver.anchor in
    let lane = segment.Driver.dag_id in
    m.ck_state <-
      ck_fold m.ck_state ~dag_id:lane ~round:anchor.Types.ref_round
        ~author:anchor.Types.ref_author;
    m.ck_lane_latest.(lane) <-
      Option.map (fun blob -> (anchor.Types.ref_round, blob)) segment.Driver.resume;
    if
      segment.Driver.closes_turn
      && seq - m.ck_last >= m.ck_interval
      && Array.for_all Option.is_some m.ck_lane_latest
    then ck_boundary t m ~seq ~last:lane

let end_turn t =
  t.next_lane <- (t.next_lane + 1) mod Array.length t.lanes;
  t.turn_round <- -1

(* Alg. 3 with one lane-round per turn: the lane whose turn it is appends
   its ready segments while they carry the turn's anchor round. The turn
   ends after a turn-closing segment, or before a ready segment of another
   round, and the cursor moves round-robin. Both are functions of the
   lane's committed sequence alone, so every replica merges identically.
   Stop when the lane whose turn it is has nothing ready. *)
let rec drain t =
  if not t.crashed then begin
    let lane_id = t.next_lane in
    let lane = t.lanes.(lane_id) in
    match Queue.peek_opt lane.ready with
    | None ->
      if Array.exists (fun l -> not (Queue.is_empty l.ready)) t.lanes then
        Obs.incr_c t.merge_blocked.(lane_id)
    | Some segment when t.turn_round >= 0 && segment.Driver.anchor.Types.ref_round <> t.turn_round
      ->
      end_turn t;
      drain t
    | Some segment ->
      ignore (Queue.pop lane.ready);
      let seq = t.global_seq in
      t.global_seq <- t.global_seq + 1;
      let round = segment.Driver.anchor.Types.ref_round in
      if segment.Driver.closes_turn then end_turn t else t.turn_round <- round;
      let ordered_at = Backend.now t.backend in
      (match t.merge_wait.(lane_id) with
      | Some h -> Telemetry.observe h (ordered_at -. segment.Driver.committed_at)
      | None -> ());
      let ntx = ref 0 in
      List.iter
        (fun (cn : Types.certified_node) ->
          List.iter
            (fun (tx : Shoalpp_workload.Transaction.t) ->
              incr ntx;
              if tx.Shoalpp_workload.Transaction.origin = t.id then
                Hashtbl.replace t.committed_own tx.Shoalpp_workload.Transaction.id ())
            cn.Types.cn_node.Types.batch.Batch.txns)
        segment.Driver.nodes;
      t.txns_ordered <- t.txns_ordered + !ntx;
      Obs.event
        (Obs.with_instance t.obs ~instance:segment.Driver.dag_id)
        ~time:ordered_at
        (Trace.Segment_interleaved
           { global_seq = seq; round; anchor = segment.Driver.anchor.Types.ref_author; txns = !ntx });
      ck_observe t ~seq segment;
      (match t.on_ordered with
      | Some f -> f { global_seq = seq; segment; ordered_at }
      | None -> ());
      drain t
  end

(* Equivocation twin: same round and parent edges, but an empty batch —
   hence a different digest — re-signed with our own key, so it passes
   proposal validation at every correct replica. Skipped when the original
   batch is already empty (the digests would coincide). *)
let equivocation_twin t (node : Types.node) =
  if node.Types.batch.Batch.txns = [] then None
  else begin
    let batch = Batch.make ~txns:[] ~created_at:node.Types.batch.Batch.created_at in
    let digest =
      Types.node_digest ~round:node.Types.round ~author:node.Types.author
        ~batch_digest:batch.Batch.digest ~parents:node.Types.parents
        ~weak_parents:node.Types.weak_parents
    in
    let kp = Committee.keypair t.cfg.Config.committee t.id in
    Some { node with Types.batch; digest; signature = Signer.sign kp (Digest32.raw digest) }
  end

let make_lane t dag_id =
  let cfg = t.cfg in
  let committee = cfg.Config.committee in
  (* Single-domain: the lane lives on the replica's backend/obs and
     [post_main] is a direct call. Multicore: timers, instance callbacks
     and instance-side observability belong to the lane's domain, the WAL
     is per-lane (its sync timers must fire on the lane's executor), and
     anything touching cross-lane state is shipped to the merge domain. *)
  let lane_bk, lane_obs, post_main =
    match t.lane_env with
    | None -> (t.backend, t.obs, fun f -> f ())
    | Some env -> (env.le_backend dag_id, env.le_obs dag_id, env.le_post_main)
  in
  let wal =
    match t.lane_env with
    | None -> t.wal
    | Some _ ->
      Wal.create ~timers:lane_bk.Backend.timers ~sync_latency_ms:cfg.Config.wal_sync_ms ()
  in
  let store = Store.create ~n:committee.Shoalpp_dag.Committee.n ~genesis_digest:committee.Shoalpp_dag.Committee.genesis in
  let ready = Queue.create () in
  (* The instance and driver reference each other; tie the knot with
     mutable options resolved before use. *)
  let instance_ref = ref None in
  let driver_ref = ref None in
  let the_instance () = Option.get !instance_ref in
  let the_driver () = Option.get !driver_ref in
  let driver =
    Driver.create ~obs:lane_obs
      (Config.driver_config cfg ~dag_id)
      {
        Driver.now = (fun () -> Backend.now lane_bk);
        cert_ref =
          (fun ~round ~author -> Instance.cert_ref_at (the_instance ()) ~round ~author);
        request_fetch = (fun node_ref -> Instance.fetch_missing (the_instance ()) node_ref);
        on_segment =
          (fun segment ->
            (* Cross-lane state (ready queues, the round-robin cursor, the
               global sequence) belongs to the merge domain: the segment
               is enqueued and interleaved there, in each lane's committed
               order, never by arrival order across lanes. *)
            post_main (fun () ->
                Queue.push segment ready;
                drain t));
        request_gc =
          (fun ~round ->
            (* Narwhal-style GC drops unordered nodes below the horizon; a
               production mempool re-proposes their transactions (quorum-
               store expiration). Requeue own-origin, still-uncommitted
               transactions from our orphaned proposals before pruning.
               Two phases: the store/driver reads happen here (lane
               domain), the [committed_own] filter and requeue on the
               merge domain, which owns that table. *)
            let lowest = Store.lowest_retained store in
            let orphaned = ref [] in
            for r = lowest to round - 1 do
              match Store.get store ~round:r ~author:t.id with
              | Some cn when not (Driver.is_ordered (the_driver ()) ~round:r ~author:t.id) ->
                orphaned := cn.Types.cn_node.Types.batch.Batch.txns :: !orphaned
              | _ -> ()
            done;
            (match List.rev !orphaned with
            | [] -> ()
            | batches ->
              post_main (fun () ->
                  List.iter
                    (List.iter (fun (tx : Shoalpp_workload.Transaction.t) ->
                         if
                           not (Hashtbl.mem t.committed_own tx.Shoalpp_workload.Transaction.id)
                         then begin
                           t.requeued <- t.requeued + 1;
                           ignore (Shoalpp_workload.Mempool.submit t.mempool tx)
                         end))
                    batches));
            Instance.gc_upto (the_instance ()) ~round;
            (* Ordered-set entries below the store floor can never be read
               again (causal traversal stops at the floor), so dropping
               them bounds driver memory alongside the store GC. *)
            let pruned = Driver.prune_ordered (the_driver ()) ~below:round in
            if pruned > 0 then Obs.incr ~by:pruned lane_obs "gc.pruned_ordered";
            Obs.set lane_obs "gc.ordered_entries"
              (float_of_int (Driver.ordered_size (the_driver ()))));
        direct_guard = None;
      }
      ~store
  in
  driver_ref := Some driver;
  let plain_broadcast payload =
    let env = { dag_id; payload } in
    Backend.broadcast t.backend ~src:t.id ~size:(envelope_size env) env
  in
  let plain_send ~dst payload =
    let env = { dag_id; payload } in
    Backend.send t.backend ~src:t.id ~dst ~size:(envelope_size env) env
  in
  (* Byzantine misbehaviour is injected at the send boundary so the instance
     and driver stay honest-path only; during WAL replay all sends are muted
     (a recovering replica must not re-broadcast history). *)
  let byz_broadcast payload =
    if t.replaying then ()
    else begin
      let now = Backend.now lane_bk in
      match (payload, t.byzantine now) with
      | Types.Proposal node, Some Faults.Silent_anchor when node.Types.author = t.id ->
        (* Withhold our proposal from everyone but ourselves. *)
        Obs.incr_c t.c_withheld;
        Obs.event t.obs ~time:now (Trace.Anchor_withheld { round = node.Types.round });
        plain_send ~dst:t.id payload
      | Types.Proposal node, Some Faults.Equivocate when node.Types.author = t.id -> (
        match equivocation_twin t node with
        | None -> plain_broadcast payload
        | Some twin ->
          Obs.incr_c t.c_equivocations;
          Obs.event t.obs ~time:now (Trace.Equivocation_sent { round = node.Types.round });
          (* Split the committee: even ids (and ourselves) see the original,
             odd ids the twin. Vote-once at correct replicas guarantees at
             most one version certifies. *)
          let twin_payload = Types.Proposal twin in
          for dst = 0 to Backend.n t.backend - 1 do
            if dst = t.id || dst mod 2 = 0 then plain_send ~dst payload
            else plain_send ~dst twin_payload
          done)
      | Types.Vote v, Some (Faults.Delay_votes delay) ->
        Obs.incr_c t.c_delayed;
        Obs.event t.obs ~time:now
          (Trace.Votes_delayed { round = v.Types.vote_round; delay_ms = int_of_float delay });
        ignore
          (Backend.schedule lane_bk ~after:delay (fun () ->
               if not t.crashed then plain_broadcast payload))
      | _ -> plain_broadcast payload
    end
  in
  let byz_send ~dst payload =
    if t.replaying then ()
    else begin
      let now = Backend.now lane_bk in
      match (payload, t.byzantine now) with
      | Types.Vote v, Some (Faults.Delay_votes delay) ->
        Obs.incr_c t.c_delayed;
        Obs.event t.obs ~time:now
          (Trace.Votes_delayed { round = v.Types.vote_round; delay_ms = int_of_float delay });
        ignore
          (Backend.schedule lane_bk ~after:delay (fun () ->
               if not t.crashed then plain_send ~dst payload))
      | _ -> plain_send ~dst payload
    end
  in
  let callbacks =
    {
      Instance.broadcast = byz_broadcast;
      send = byz_send;
      now = (fun () -> Backend.now lane_bk);
      schedule = (fun ~after f -> Backend.schedule lane_bk ~after f);
      pull_batch = (fun ~max -> Mempool.pull t.mempool ~max);
      anchors_of_round = (fun round -> Driver.anchors_of_round (the_driver ()) round);
      persist =
        (fun msg cb ->
          (* During replay the entry is already durable: complete instantly
             (the voted table was rebuilt before this point, and the muted
             send layer swallows the re-externalized votes). *)
          if t.replaying then cb ()
          else begin
            let size = Types.message_size msg in
            if Wal.retains wal then
              let payload =
                String.make 1 (Char.chr (dag_id land 0xff)) ^ Types.encode_message msg
              in
              Wal.append wal ~size ~payload cb
            else Wal.append wal ~size cb
          end);
      on_proposal_noted = (fun _node -> Driver.notify (the_driver ()));
      on_certified = (fun _cn -> Driver.notify (the_driver ()));
      on_cert_meta = (fun _ref -> Driver.notify (the_driver ()));
    }
  in
  let instance =
    Instance.create ~obs:lane_obs
      (Config.instance_config cfg ~replica:t.id ~dag_id)
      callbacks ~store
  in
  (* Bounded-memory lifecycle on: physical deletion waits for a certified
     checkpoint from the start (gate 0), so history a restarting peer may
     need stays serveable. Without checkpointing no gate is ever installed
     and pruning behaves exactly as before. *)
  if Option.is_some t.ck then Instance.set_retain_gate instance ~round:0;
  instance_ref := Some instance;
  {
    store;
    instance;
    driver;
    ready;
    lane_wal = wal;
    server =
      Sync.Server.create ~store
        ~checkpoint:(fun () ->
          match t.ck with
          | Some m -> Option.map Checkpoint.encode m.ck_latest
          | None -> None)
        ();
    sync_client = None;
    ck_marks = [];
  }

(* --- peer catch-up sync -------------------------------------------------
   After a restart the local WAL only covers the retained window; everything
   committed cluster-wide since our last certified checkpoint (or since we
   went down) is pulled from peers in O(gap) messages: one round-probe plus
   ceil(gap/page) range requests per lane. Requests/responses ride normal
   per-lane envelopes — they only flow while a replica is recovering, a
   regime where golden determinism is not asserted. *)

(* Rewind the merge and every lane to a certified checkpoint: global
   sequencing resumes at seq+1 with a fresh turn on the lane after the
   boundary's (the candidate lists the lanes in turn order, ending with the
   boundary's), each driver resumes from its snapshot blob, and each
   instance's store floor is raised to the driver's restored floor. The
   blobs are also every lane's last merged snapshot, exactly as at a
   replica that merged up to the boundary, so later boundaries agree. *)
let ck_restore_from t m ck =
  m.ck_latest <- Some ck;
  Hashtbl.reset m.ck_pending;
  m.ck_state <- Checkpoint.state ck;
  m.ck_last <- Checkpoint.seq ck;
  Array.fill m.ck_lane_latest 0 (Array.length m.ck_lane_latest) None;
  t.global_seq <- Checkpoint.seq ck + 1;
  t.base_seq <- t.global_seq;
  t.turn_round <- -1;
  List.iter
    (fun (l : Checkpoint.lane) ->
      if l.Checkpoint.dag_id < Array.length t.lanes then begin
        let lane = t.lanes.(l.Checkpoint.dag_id) in
        let floor = Driver.restore lane.driver l.Checkpoint.resume in
        if floor > 0 then Instance.gc_upto lane.instance ~round:floor;
        m.ck_lane_latest.(l.Checkpoint.dag_id) <- Some (l.Checkpoint.round, l.Checkpoint.resume);
        t.next_lane <- (l.Checkpoint.dag_id + 1) mod Array.length t.lanes
      end)
    (Checkpoint.lanes ck);
  (* Everything below the restored floors is vouched for by the adopted
     certificate; physical retention restarts there. *)
  ck_apply_gates t ck

let replay_wal t =
  t.replaying <- true;
  let replayed = ref 0 in
  List.iter
    (fun entry ->
      if String.length entry > 1 then begin
        let dag_id = Char.code entry.[0] in
        if dag_id < Array.length t.lanes then begin
          let raw = String.sub entry 1 (String.length entry - 1) in
          match Types.decode_message raw with
          | Ok msg ->
            incr replayed;
            (* Proposals must appear to come from their author (the
               src/author check of handle_proposal); everything else is
               our own durable state. *)
            let src = match msg with Types.Proposal node -> node.Types.author | _ -> t.id in
            Instance.handle_message t.lanes.(dag_id).instance ~src msg
          | Error _ -> ()
        end
      end)
    (Wal.entries t.wal);
  t.replaying <- false;
  !replayed

let rec start_catch_up t =
  t.catching_up <- true;
  t.syncing_lanes <- Array.length t.lanes;
  let from_round0 = ref 0 in
  Array.iteri
    (fun dag_id lane ->
      let hooks =
        {
          Sync.Client.send =
            (fun ~dst req ->
              let payload = Types.Sync_request { sq_requester = t.id; sq_req = req } in
              let env = { dag_id; payload } in
              Backend.send t.backend ~src:t.id ~dst ~size:(envelope_size env) env);
          ingest = (fun cn -> Instance.ingest_certified lane.instance cn);
          schedule = (fun ~after f -> ignore (Backend.schedule t.backend ~after f));
          on_caught_up = (fun () -> lane_caught_up t dag_id);
        }
      in
      let client = Sync.Client.create ~n:(Backend.n t.backend) ~self:t.id hooks in
      lane.sync_client <- Some client;
      (* Resume wherever local knowledge ends: the restored checkpoint
         floor, or the highest round the WAL replay reconstructed — unless
         replay left an empty round at or above the round the driver
         resumes from. The WAL is truncated by merge position while a lane
         may run far ahead of the merge, so its retained entries can skip
         rounds the lane's driver has yet to order; fetching them one
         causal step at a time loses the race against the peers' pruning,
         so sync fills them. *)
      let floor = max 0 (Instance.lowest_round lane.instance) in
      let top = Store.highest_round lane.store in
      let resume = max floor (Driver.current_anchor_round lane.driver) in
      let rec first_gap r =
        if r >= top || Store.count_at lane.store ~round:r = 0 then r else first_gap (r + 1)
      in
      let from = if top <= resume then max floor top else first_gap resume in
      if dag_id = 0 then from_round0 := from;
      Sync.Client.start client ~from)
    t.lanes;
  Obs.event t.obs ~time:(Backend.now t.backend)
    (Trace.Sync_started { replica = t.id; from_round = !from_round0 })

and lane_caught_up t dag_id =
  Instance.resume t.lanes.(dag_id).instance;
  t.syncing_lanes <- t.syncing_lanes - 1;
  if t.syncing_lanes = 0 then begin
    t.catching_up <- false;
    let requests, certs =
      Array.fold_left
        (fun (rq, cs) lane ->
          match lane.sync_client with
          | Some c -> (rq + Sync.Client.requests_sent c, cs + Sync.Client.certs_ingested c)
          | None -> (rq, cs))
        (0, 0) t.lanes
    in
    if requests > 0 then Obs.incr ~by:requests t.obs "sync.requests";
    if certs > 0 then Obs.incr ~by:certs t.obs "sync.certs_ingested";
    Obs.event t.obs ~time:(Backend.now t.backend)
      (Trace.Sync_completed { replica = t.id; certs; requests });
    match t.on_caught_up with Some f -> f () | None -> ()
  end

(* Deferred tail of a checkpoint-aware recovery: replay the retained WAL
   through the fresh instances, then pull the missed history via the sync
   protocol. Runs after the peer-checkpoint probe resolves (adopted, stale,
   or given up) so that replayed commits can never land below a frontier
   adopted afterwards — the ordered log stays contiguous from [base_seq]. *)
let finish_recovery t =
  let replayed = replay_wal t in
  Obs.event t.obs ~time:(Backend.now t.backend)
    (Trace.Replica_recovered { replica = t.id; replayed });
  start_catch_up t

(* Peer-checkpoint probe, run on every checkpoint-aware restart (not just
   total disk loss): peers prune history below their own certified
   checkpoints, so an outage longer than the retained window can only be
   bridged by first adopting a frontier at least as new as the serving
   peer's floor. Peers are asked in deterministic rotation with a retry on
   silence; only a blob that verifies against the committee is adopted, and
   only when strictly newer than local durable state. If every peer answers
   [None] (the cluster never certified one), fall back to replay plus
   syncing the full history from round 0. *)
let rec ck_request_checkpoint t =
  let n = Backend.n t.backend in
  if t.ck_fetch_attempt >= 2 * n then begin
    t.ck_fetch_attempt <- -1;
    finish_recovery t
  end
  else begin
    let dst =
      let p = (t.id + 1 + t.ck_fetch_attempt) mod n in
      if p = t.id then (p + 1) mod n else p
    in
    let payload = Types.Sync_request { sq_requester = t.id; sq_req = Types.Get_checkpoint } in
    let env = { dag_id = 0; payload } in
    let attempt = t.ck_fetch_attempt in
    Backend.send t.backend ~src:t.id ~dst ~size:(envelope_size env) env;
    ignore
      (Backend.schedule t.backend ~after:400.0 (fun () ->
           if t.ck_fetch_attempt = attempt && not t.crashed then begin
             t.ck_fetch_attempt <- attempt + 1;
             ck_request_checkpoint t
           end))
  end

and ck_adopt t m blob_opt =
  match blob_opt with
  | None ->
    t.ck_fetch_attempt <- t.ck_fetch_attempt + 1;
    ck_request_checkpoint t
  | Some blob ->
    let committee = t.cfg.Config.committee in
    let quorum = Committee.quorum committee in
    let ck =
      match
        Checkpoint.decode ~keys:committee.Committee.keys blob
      with
      | ck ->
        if Checkpoint.verify ~cluster_seed:committee.Committee.cluster_seed ~quorum ck then
          Some ck
        else None
      | exception Shoalpp_codec.Wire.Reader.Malformed _ -> None
    in
    (match ck with
    | None ->
      (* Unverifiable blob: never adopt — rotate to the next peer. *)
      Obs.incr t.obs "ck.adopt_rejected";
      t.ck_fetch_attempt <- t.ck_fetch_attempt + 1;
      ck_request_checkpoint t
    | Some ck ->
      t.ck_fetch_attempt <- -1;
      (* A peer frontier at or below our own adds nothing — keep local
         state (its WAL coverage is contiguous with it) and move on. *)
      if Checkpoint.seq ck + 1 > t.global_seq then begin
        ck_restore_from t m ck;
        Wal.append m.ck_wal ~size:(Checkpoint.wire_size ck) ~payload:(Checkpoint.encode ck)
          ignore
      end;
      finish_recovery t)

let handle_sync_request t ~dag_id ~src req =
  let lane = t.lanes.(dag_id) in
  let payload =
    Types.Sync_response { sp_responder = t.id; sp_resp = Sync.Server.handle lane.server req }
  in
  let env = { dag_id; payload } in
  Backend.send t.backend ~src:t.id ~dst:src ~size:(envelope_size env) env

let handle_sync_response t ~dag_id resp =
  match (resp, t.ck) with
  | Types.Checkpoint_blob { cb_blob }, Some m when t.ck_fetch_attempt >= 0 ->
    ck_adopt t m cb_blob
  | _ -> (
    match t.lanes.(dag_id).sync_client with
    | Some c -> Sync.Client.handle_response c resp
    | None -> ())

(* Single inbound dispatch for every transport: control-plane envelopes
   (dag 255) carry checkpoint votes, lane envelopes carry either sync
   traffic or protocol messages for that DAG instance. *)
let route t ~src (env : envelope) =
  if not t.crashed then begin
    if env.dag_id = control_dag_id then begin
      match env.payload with
      | Types.Checkpoint_vote { ck_seq; ck_digest; ck_voter; ck_signature } ->
        handle_checkpoint_vote t ~ck_seq ~ck_digest ~ck_voter ~ck_signature
      | _ -> () (* only checkpoint votes ride the control plane *)
    end
    else if env.dag_id >= 0 && env.dag_id < Array.length t.lanes then begin
      match env.payload with
      | Types.Sync_request { sq_req; _ } -> handle_sync_request t ~dag_id:env.dag_id ~src sq_req
      | Types.Sync_response { sp_resp; _ } -> handle_sync_response t ~dag_id:env.dag_id sp_resp
      | payload -> Instance.handle_message t.lanes.(env.dag_id).instance ~src payload
    end
  end

let create ~config ~replica_id ~backend ~mempool ?on_ordered ?on_caught_up ?trace ?telemetry
    ?(byzantine = fun _ -> None) ?(retain_wal = false) ?lane_env () =
  let obs = Obs.make ?trace ?telemetry ~replica:replica_id ~instance:0 () in
  let t =
    {
      cfg = config;
      id = replica_id;
      backend;
      mempool;
      wal =
        Wal.create ~timers:backend.Backend.timers
          ~sync_latency_ms:config.Config.wal_sync_ms ~retain:retain_wal ();
      lane_env;
      lanes = [||];
      on_ordered;
      obs;
      next_lane = 0;
      turn_round = -1;
      merge_wait =
        Array.init config.Config.num_dags (fun i ->
            Obs.histogram obs (Printf.sprintf "merge.wait_ms.lane%d" i));
      merge_blocked =
        Array.init config.Config.num_dags (fun i ->
            Obs.counter obs (Printf.sprintf "merge.blocked.lane%d" i));
      global_seq = 0;
      txns_ordered = 0;
      requeued = 0;
      committed_own = Hashtbl.create 4096;
      crashed = false;
      byzantine;
      replaying = false;
      ck =
        (let interval = config.Config.checkpoint_interval in
         if interval <= 0 then None
         else
           Some
             {
               ck_interval = interval;
               (* Separate retaining device: certified checkpoints
                  must survive protocol-WAL truncation, and their writes
                  must not perturb its group-commit timing. *)
               ck_wal =
                 Wal.create ~timers:backend.Backend.timers
                   ~sync_latency_ms:config.Config.wal_sync_ms ~retain:true ();
               ck_state = Digest32.zero;
               ck_last = -1;
               ck_reached = 0;
               ck_lane_latest = Array.make config.Config.num_dags None;
               ck_pending = Hashtbl.create 8;
               ck_latest = None;
               ck_main_marks = [];
             });
      base_seq = 0;
      catching_up = false;
      syncing_lanes = 0;
      ck_fetch_attempt = -1;
      on_caught_up;
      c_equivocations = Obs.counter obs "fault.equivocations";
      c_withheld = Obs.counter obs "fault.withheld_proposals";
      c_delayed = Obs.counter obs "fault.delayed_votes";
      c_crashes = Obs.counter obs "fault.crashes";
      c_recoveries = Obs.counter obs "fault.recoveries";
    }
  in
  t.lanes <- Array.init config.Config.num_dags (fun dag_id -> make_lane t dag_id);
  (* The knob's honour rate shows in --metrics-out and /metrics even at zero. *)
  if Option.is_some t.ck then
    List.iter
      (fun c -> ignore (Obs.counter obs c))
      [ "ck.boundaries"; "ck.certified"; "ck.votes_dropped" ];
  (* Under a lane_env the harness owns message routing (inbound messages
     must cross the verify pool and land on the right lane's domain), so
     the replica does not claim the transport slot itself. *)
  (match lane_env with
  | Some _ -> ()
  | None -> Backend.set_handler backend replica_id (fun ~src env -> route t ~src env));
  t

let deliver t ~dag_id ~src payload = route t ~src { dag_id; payload }

let start t =
  Array.iteri
    (fun dag_id lane ->
      let delay = float_of_int dag_id *. t.cfg.Config.stagger_ms in
      match t.lane_env with
      | Some env ->
        (* Even an undelayed start is scheduled: Instance.start must run on
           the lane's own domain, not the caller's. *)
        ignore
          (Backend.schedule (env.le_backend dag_id) ~after:(Float.max 0.0 delay) (fun () ->
               Instance.start lane.instance))
      | None ->
        if delay <= 0.0 then Instance.start lane.instance
        else
          ignore
            (Backend.schedule t.backend ~after:delay (fun () -> Instance.start lane.instance)))
    t.lanes

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    Obs.incr_c t.c_crashes;
    Obs.event t.obs ~time:(Backend.now t.backend) (Trace.Replica_crashed { replica = t.id });
    Array.iter (fun lane -> Instance.crash lane.instance) t.lanes
  end

(* Newest locally durable checkpoint that still verifies against the
   committee: anything malformed or under-signed in the device is skipped,
   never trusted. *)
let latest_local_checkpoint t =
  match t.ck with
  | None -> None
  | Some m ->
    let committee = t.cfg.Config.committee in
    let quorum = Committee.quorum committee in
    List.fold_left
      (fun acc blob ->
        match
          Checkpoint.decode ~keys:committee.Committee.keys blob
        with
        | ck ->
          if
            Checkpoint.verify ~cluster_seed:committee.Committee.cluster_seed ~quorum ck
            && match acc with Some prev -> Checkpoint.seq ck > Checkpoint.seq prev | None -> true
          then Some ck
          else acc
        | exception Shoalpp_codec.Wire.Reader.Malformed _ -> acc)
      None (Wal.entries m.ck_wal)

(* Restart after a crash: rebuild every lane from scratch, rewind to the
   newest certified checkpoint (if any), then replay the retained WAL
   entries through the fresh instances. Replay reconstructs the DAG stores,
   the vote-once table (so we cannot double-vote positions we voted before
   the crash), and — via the drivers — the committed suffix, which is a
   pure function of the replayed DAG above the checkpoint. Sends are muted
   while [replaying] is set. With peers and a
   checkpoint manager, recovery then pulls the missed history via the sync
   protocol; instances resume lane-by-lane as their catch-up completes and
   [on_caught_up] fires once all lanes are live. [wipe] simulates total
   disk loss: both WAL devices are cleared and the replica adopts a peer's
   certified checkpoint before syncing. *)
let recover ?(wipe = false) t =
  if t.crashed then begin
    t.crashed <- false;
    t.next_lane <- 0;
    t.turn_round <- -1;
    t.global_seq <- 0;
    t.base_seq <- 0;
    if wipe then Wal.clear t.wal;
    (match t.ck with
    | Some m ->
      if wipe then begin
        Wal.clear m.ck_wal;
        m.ck_latest <- None;
        m.ck_main_marks <- []
      end;
      (* Vote state never survives a restart; the running digest restarts
         from zero (or from the restored checkpoint's state below). *)
      Hashtbl.reset m.ck_pending;
      m.ck_state <- Digest32.zero;
      m.ck_last <- -1;
      Array.fill m.ck_lane_latest 0 (Array.length m.ck_lane_latest) None
    | None -> ());
    t.lanes <- Array.init t.cfg.Config.num_dags (fun dag_id -> make_lane t dag_id);
    let ck = if wipe then None else latest_local_checkpoint t in
    (match (t.ck, ck) with Some m, Some ck -> ck_restore_from t m ck | _ -> ());
    Obs.incr_c t.c_recoveries;
    match t.ck with
    | Some _ when Backend.n t.backend > 1 ->
      (* Probe a peer for its newest certified checkpoint before replaying:
         peers prune below their own checkpoints, so a restart longer than
         the retained sync window is only bridgeable from an adopted
         (newer) frontier. Replay and catch-up follow in [finish_recovery]
         once the probe resolves. *)
      t.catching_up <- true;
      t.ck_fetch_attempt <- 0;
      ck_request_checkpoint t
    | _ ->
      let replayed = replay_wal t in
      Obs.event t.obs ~time:(Backend.now t.backend)
        (Trace.Replica_recovered { replica = t.id; replayed });
      Array.iter (fun lane -> Instance.resume lane.instance) t.lanes;
      (match t.on_caught_up with Some f -> f () | None -> ())
  end

let replica_id t = t.id
let config t = t.cfg
let log_length t = t.global_seq
let txns_ordered t = t.txns_ordered
let driver_stats t = Array.to_list (Array.map (fun lane -> Driver.stats lane.driver) t.lanes)
let store t ~dag_id = t.lanes.(dag_id).store
let driver t ~dag_id = t.lanes.(dag_id).driver

let instance_stats t =
  Array.to_list
    (Array.map
       (fun lane ->
         ( Instance.proposals_made lane.instance,
           Instance.votes_cast lane.instance,
           Instance.certs_formed lane.instance,
           Instance.fetches_sent lane.instance ))
       t.lanes)

let current_rounds t =
  Array.to_list (Array.map (fun lane -> Instance.proposed_round lane.instance) t.lanes)

let wal t = t.wal
let requeued t = t.requeued
let pending_segments t = Array.fold_left (fun acc lane -> acc + Queue.length lane.ready) 0 t.lanes
let base_seq t = t.base_seq
let catching_up t = t.catching_up
let latest_checkpoint t = match t.ck with Some m -> m.ck_latest | None -> None
let checkpoint_boundaries t = match t.ck with Some m -> m.ck_reached | None -> 0
let checkpoint_wal t = Option.map (fun m -> m.ck_wal) t.ck

let sync_stats t =
  Array.fold_left
    (fun (reqs, certs) lane ->
      match lane.sync_client with
      | Some c -> (reqs + Sync.Client.requests_sent c, certs + Sync.Client.certs_ingested c)
      | None -> (reqs, certs))
    (0, 0) t.lanes

let sync_requests_served t =
  Array.fold_left (fun acc lane -> acc + Sync.Server.requests_served lane.server) 0 t.lanes
