(* Tests for the consensus layer: reputation determinism and exclusion,
   anchor schedules, and the ordering driver's three commit rules (fast,
   direct, indirect) plus the skip logic — all over hand-constructed DAG
   stores so that every scenario is exact. *)

module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Reputation = Shoalpp_consensus.Reputation
module Anchors = Shoalpp_consensus.Anchors
module Driver = Shoalpp_consensus.Driver

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let committee = Committee.make ~n:4 ~cluster_seed:66 ()

(* ------------------------------------------------------------------ *)
(* Reputation *)

(* Feed a segment described by ids: [supporters] lists the anchor's author
   first, then its strong parents' authors; [node_positions] are the
   (round, author) pairs the segment ordered. *)
let seg_node =
  {
    Types.round = 0;
    author = 0;
    batch = Shoalpp_workload.Batch.empty ~created_at:0.0;
    parents = [];
    weak_parents = [];
    digest = Shoalpp_crypto.Digest32.zero;
    signature = Shoalpp_crypto.Signer.of_raw (String.make 32 '\000');
    created_at = 0.0;
  }

let seg_cert =
  { Types.cert_ref = Types.ref_of_node seg_node; multisig = Shoalpp_crypto.Multisig.aggregate ~n:4 [] }

let segment_ref ~round author =
  { Types.ref_round = round; ref_author = author; ref_digest = Shoalpp_crypto.Digest32.zero }

let segment_node (round, author) =
  { Types.cn_node = { seg_node with Types.round; author }; cn_cert = seg_cert }

let observe r ~anchor_round ~supporters ~node_positions =
  let anchor, others = match supporters with a :: rest -> (a, rest) | [] -> (-1, []) in
  Reputation.observe_segment r ~anchor_round ~anchor
    ~parents:(List.map (segment_ref ~round:(anchor_round - 1)) others)
    ~nodes:(List.map segment_node node_positions)

let test_reputation_cold_start_all () =
  let r = Reputation.create ~n:4 ~enabled:true () in
  checki "all eligible" 4 (List.length (Reputation.eligible r ~round:1 ~slot:1));
  (* Rotation differs by slot. *)
  checkb "slots rotate" true
    (Reputation.eligible r ~round:1 ~slot:1 <> Reputation.eligible r ~round:1 ~slot:2)

let test_reputation_disabled_round_robin () =
  let r = Reputation.create ~n:4 ~enabled:false () in
  Alcotest.(check (list int)) "slot 0" [ 0; 1; 2; 3 ] (Reputation.eligible r ~round:5 ~slot:0);
  Alcotest.(check (list int)) "slot 2" [ 2; 3; 0; 1 ] (Reputation.eligible r ~round:5 ~slot:2)

let test_reputation_supporters_vs_stragglers () =
  let r = Reputation.create ~n:4 ~staleness:3 ~enabled:true () in
  (* Authors 0-2 support every anchor through round 10; author 3's nodes
     are only swept into histories late (never a supporter). *)
  for round = 1 to 10 do
    observe r ~anchor_round:round ~supporters:[ 0; 1; 2 ]
      ~node_positions:[ (round, 0); (round, 1); (round - 1, 2); (round - 4, 3) ]
  done;
  checkb "supporter active" true (Reputation.is_active r ~round:11 0);
  checkb "straggler inactive" false (Reputation.is_active r ~round:11 3);
  let eligible = Reputation.eligible r ~round:11 ~slot:11 in
  checkb "straggler excluded" false (List.mem 3 eligible);
  checki "three eligible" 3 (List.length eligible)

let test_reputation_recovers () =
  let r = Reputation.create ~n:4 ~staleness:3 ~enabled:true () in
  for round = 1 to 5 do
    observe r ~anchor_round:round ~supporters:[ 0; 1; 2 ]
      ~node_positions:[ (round, 0); (round, 1); (round, 2) ]
  done;
  checkb "3 excluded" false (List.mem 3 (Reputation.eligible r ~round:6 ~slot:6));
  (* Author 3 supports an anchor again. *)
  observe r ~anchor_round:6 ~supporters:[ 3 ] ~node_positions:[ (6, 3) ];
  checkb "3 restored" true (List.mem 3 (Reputation.eligible r ~round:7 ~slot:7))

let test_reputation_scores_order () =
  let r = Reputation.create ~n:4 ~enabled:true () in
  (* Author 2 supports twice as often. *)
  for round = 1 to 8 do
    observe r ~anchor_round:round
      ~supporters:(2 :: (if round mod 2 = 0 then [ 0; 1; 3 ] else []))
      ~node_positions:[]
  done;
  (match Reputation.eligible r ~round:9 ~slot:9 with
  | best :: _ -> checki "highest score first" 2 best
  | [] -> Alcotest.fail "empty");
  checkb "score visible" true (Reputation.score r 2 > Reputation.score r 0)

let test_reputation_window_eviction () =
  let r = Reputation.create ~n:4 ~window:4 ~enabled:true () in
  for round = 1 to 4 do
    observe r ~anchor_round:round ~supporters:[ 0 ]
      ~node_positions:[ (round, 0) ]
  done;
  checki "score in window" 4 (Reputation.score r 0);
  for round = 5 to 8 do
    observe r ~anchor_round:round ~supporters:[ 1 ]
      ~node_positions:[ (round, 1) ]
  done;
  checki "old segments evicted" 0 (Reputation.score r 0)

let test_reputation_duplicate_supporters_once () =
  let r = Reputation.create ~n:4 ~enabled:true () in
  observe r ~anchor_round:1 ~supporters:[ 2; 2; 2 ] ~node_positions:[];
  checki "dedup" 1 (Reputation.score r 2)

let test_reputation_determinism () =
  let feed r =
    for round = 1 to 6 do
      observe r ~anchor_round:round
        ~supporters:[ round mod 4; (round + 1) mod 4 ]
        ~node_positions:[ (round, round mod 4); (round - 1, (round + 1) mod 4) ]
    done
  in
  let a = Reputation.create ~n:4 ~enabled:true () in
  let b = Reputation.create ~n:4 ~enabled:true () in
  feed a;
  feed b;
  for round = 7 to 10 do
    Alcotest.(check (list int))
      "same vectors"
      (Reputation.eligible a ~round ~slot:round)
      (Reputation.eligible b ~round ~slot:round)
  done

(* The sort-based definition of [observe_segment] (filter to range, then
   [List.sort_uniq]) over a plain copy of the state, as the oracle for the
   mark-array implementation. *)
type model = {
  m_n : int;
  m_window : int;
  m_scores : int array;
  m_last_round : int array;
  m_last_support : int array;
  m_miss : int array;
  m_recent : int list Queue.t;
  mutable m_highest : int;
}

let model_create ~n ~window =
  {
    m_n = n;
    m_window = window;
    m_scores = Array.make n 0;
    m_last_round = Array.make n (-1);
    m_last_support = Array.make n (-1);
    m_miss = Array.make n 0;
    m_recent = Queue.create ();
    m_highest = -1;
  }

let model_observe m ~anchor_round ~supporters ~node_positions =
  if anchor_round > m.m_highest then m.m_highest <- anchor_round;
  List.iter
    (fun (round, author) ->
      if author >= 0 && author < m.m_n && round > m.m_last_round.(author) then
        m.m_last_round.(author) <- round)
    node_positions;
  let supporters =
    List.sort_uniq Int.compare (List.filter (fun a -> a >= 0 && a < m.m_n) supporters)
  in
  List.iter
    (fun a ->
      m.m_scores.(a) <- m.m_scores.(a) + 1;
      m.m_miss.(a) <- 0;
      if anchor_round > m.m_last_support.(a) then m.m_last_support.(a) <- anchor_round)
    supporters;
  Queue.push supporters m.m_recent;
  if Queue.length m.m_recent > m.m_window then
    List.iter (fun a -> m.m_scores.(a) <- m.m_scores.(a) - 1) (Queue.pop m.m_recent)

let model_dump m =
  {
    Reputation.d_scores = Array.to_list m.m_scores;
    d_last_round = Array.to_list m.m_last_round;
    d_last_support = Array.to_list m.m_last_support;
    d_miss = Array.to_list m.m_miss;
    d_recent = List.of_seq (Queue.to_seq m.m_recent);
    d_highest_anchor_round = m.m_highest;
  }

let prop_reputation_matches_sort_definition =
  QCheck.Test.make ~name:"observe_segment = filter + sort_uniq definition" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Shoalpp_support.Rng.create seed in
      let int_in lo hi = Shoalpp_support.Rng.int_in rng lo hi in
      let n = int_in 4 12 and window = int_in 1 8 and staleness = int_in 1 6 in
      let r = Reputation.create ~n ~window ~staleness ~enabled:true () in
      let m = model_create ~n ~window in
      let ok = ref true in
      for step = 1 to 60 do
        if int_in 0 4 = 0 then begin
          let author = int_in (-2) (n + 1) in
          Reputation.observe_skip r ~round:step ~author;
          if author >= 0 && author < n then m.m_miss.(author) <- m.m_miss.(author) + 1
        end
        else begin
          (* Anchor rounds mostly advance but may repeat or step back;
             supporter ids include duplicates and out-of-range values. *)
          let anchor_round = step - int_in 0 2 in
          let supporters = List.init (int_in 0 (2 * n)) (fun _ -> int_in (-3) (n + 2)) in
          let node_positions =
            List.init (int_in 0 n) (fun _ -> (int_in 0 step, int_in (-2) (n + 1)))
          in
          observe r ~anchor_round ~supporters ~node_positions;
          model_observe m ~anchor_round ~supporters ~node_positions
        end;
        let loaded = Reputation.create ~n ~window ~staleness ~enabled:true () in
        Reputation.load loaded (model_dump m);
        let slot = int_in 0 100 in
        ok :=
          !ok
          && Reputation.dump r = model_dump m
          && Reputation.eligible r ~round:step ~slot = Reputation.eligible loaded ~round:step ~slot
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Anchors *)

let test_anchor_modes () =
  let r = Reputation.create ~n:4 ~enabled:false () in
  checki "round 0 never anchored" 0 (List.length (Anchors.candidates Anchors.All_eligible r ~round:0));
  checki "bullshark even round empty" 0
    (List.length (Anchors.candidates Anchors.Every_other_round r ~round:2));
  checki "bullshark odd round single" 1
    (List.length (Anchors.candidates Anchors.Every_other_round r ~round:3));
  checki "shoal single" 1 (List.length (Anchors.candidates Anchors.One_per_round r ~round:2));
  checki "shoal++ all" 4 (List.length (Anchors.candidates Anchors.All_eligible r ~round:2))

let test_bullshark_anchor_rotation_covers_all () =
  let r = Reputation.create ~n:4 ~enabled:false () in
  let anchors =
    List.filter_map
      (fun round ->
        match Anchors.candidates Anchors.Every_other_round r ~round with
        | [ a ] -> Some a
        | _ -> None)
      [ 1; 3; 5; 7 ]
  in
  Alcotest.(check (list int)) "round-robin over all replicas" [ 0; 1; 2; 3 ]
    (List.sort compare anchors)

let test_instance_anchor_is_head () =
  let r = Reputation.create ~n:4 ~enabled:false () in
  checki "head of rotation" (5 mod 4) (Anchors.instance_anchor r ~round:5)

(* ------------------------------------------------------------------ *)
(* Driver *)

(* Hand-built DAG machinery (shared with test_dag via local copies). *)
let make_node ?(weak_parents = []) ~round ~author ~parents () =
  let batch = Shoalpp_workload.Batch.empty ~created_at:0.0 in
  let digest =
    Types.node_digest ~round ~author
      ~batch_digest:batch.Shoalpp_workload.Batch.digest ~parents ~weak_parents
  in
  let kp = Committee.keypair committee author in
  {
    Types.round;
    author;
    batch;
    parents;
    weak_parents;
    digest;
    signature = Shoalpp_crypto.Signer.sign kp (Shoalpp_crypto.Digest32.raw digest);
    created_at = 0.0;
  }

let certify node =
  let preimage =
    Types.vote_preimage ~round:node.Types.round ~author:node.Types.author
      ~digest:node.Types.digest
  in
  let sigs =
    List.init 3 (fun i -> (i, Shoalpp_crypto.Signer.sign (Committee.keypair committee i) preimage))
  in
  {
    Types.cn_node = node;
    cn_cert =
      { Types.cert_ref = Types.ref_of_node node; multisig = Shoalpp_crypto.Multisig.aggregate ~n:4 sigs };
  }

type dctx = {
  store : Store.t;
  driver : Driver.t;
  mutable segments : Driver.segment list; (* newest first *)
}

let make_driver ?(mode = Anchors.All_eligible) ?(fast = true) ?(reputation = false) ?obs
    ?(observe = fun (_ : Driver.t) (_ : Driver.segment) -> ()) () =
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let ctx = ref None in
  let cfg =
    {
      (Driver.default_config ~committee) with
      Driver.mode;
      fast_commit = fast;
      reputation_enabled = reputation;
    }
  in
  let driver =
    Driver.create ?obs cfg
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map
              (fun cn -> Types.ref_of_node cn.Types.cn_node)
              (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment =
          (fun s ->
            match !ctx with
            | Some c ->
              c.segments <- s :: c.segments;
              observe c.driver s
            | None -> ());
        request_gc = (fun ~round:_ -> ());
        direct_guard = None;
      }
      ~store
  in
  let c = { store; driver; segments = [] } in
  ctx := Some c;
  c

(* Insert a full certified round where each node references [parents]. Also
   note the proposals so weak votes accumulate. *)
let add_round ctx ~round ~parents ?(authors = [ 0; 1; 2; 3 ]) ?(note = true) () =
  let cns = List.map (fun author -> certify (make_node ~round ~author ~parents ())) authors in
  List.iter
    (fun cn ->
      if note then ignore (Store.note_proposal ctx.store cn.Types.cn_node);
      ignore (Store.add_certified ctx.store cn);
      Driver.notify ctx.driver)
    cns;
  List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns

let segment_anchors ctx =
  List.rev_map
    (fun (s : Driver.segment) ->
      (s.Driver.anchor.Types.ref_round, s.Driver.anchor.Types.ref_author, s.Driver.kind))
    ctx.segments

let test_driver_fast_commit () =
  let ctx = make_driver () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  (* Round-2 proposals noted (weak votes) but NOT certified: only the fast
     rule can fire for round-1 anchors. *)
  List.iter
    (fun author ->
      ignore (Store.note_proposal ctx.store (make_node ~round:2 ~author ~parents:r1 ()));
      Driver.notify ctx.driver)
    [ 0; 1; 2 ];
  let anchors = segment_anchors ctx in
  checki "all four round-1 anchors fast-committed" 4 (List.length anchors);
  List.iter (fun (r, _, kind) ->
      checki "round" 1 r;
      checkb "fast" true (kind = Driver.Fast))
    anchors;
  (* Every segment's nodes are disjoint and cover round 0 + its anchor. *)
  let all_nodes =
    List.concat_map (fun (s : Driver.segment) -> s.Driver.nodes) ctx.segments
  in
  let positions =
    List.map (fun cn -> (cn.Types.cn_node.Types.round, cn.Types.cn_node.Types.author)) all_nodes
  in
  checki "8 nodes ordered exactly once" 8 (List.length (List.sort_uniq compare positions));
  checki "no duplicates" 8 (List.length positions)

let test_driver_fast_needs_fast_quorum () =
  let ctx = make_driver () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  (* Only 2 weak votes (f+1 = 2 < 2f+1 = 3): nothing commits. *)
  List.iter
    (fun author ->
      ignore (Store.note_proposal ctx.store (make_node ~round:2 ~author ~parents:r1 ()));
      Driver.notify ctx.driver)
    [ 0; 1 ];
  checki "no commit below fast quorum" 0 (List.length ctx.segments)

let test_driver_direct_commit_without_fast () =
  let ctx = make_driver ~fast:false () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  (* Certify only 2 round-2 nodes (= f+1): direct rule fires, fast is off. *)
  ignore (add_round ctx ~round:2 ~parents:r1 ~authors:[ 0; 1 ] ());
  let anchors = segment_anchors ctx in
  checkb "round-1 anchors committed" true (List.length anchors >= 4);
  List.iter (fun (_, _, kind) -> checkb "direct kind" true (kind = Driver.Direct))
    (List.filteri (fun i _ -> i < 4) anchors)

let test_driver_direct_needs_weak_quorum () =
  let ctx = make_driver ~fast:false () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  ignore (add_round ctx ~round:2 ~parents:r1 ~authors:[ 0 ] ());
  checki "one certified ref insufficient" 0 (List.length ctx.segments)

let test_driver_indirect_skip () =
  (* Round-1 candidate head is never referenced: rounds 2+ reference only a
     quorum that excludes it. The driver must resolve it via the indirect
     path and skip it, committing the instance anchor instead. *)
  let ctx = make_driver ~fast:false () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  (* Head candidate for round 1 in disabled-reputation rotation is author
     1 (slot = round = 1). Build round 1 fully, but make rounds 2+ reference
     only authors 0,2,3 of round 1. *)
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  let r1_partial = List.filter (fun (r : Types.node_ref) -> r.Types.ref_author <> 1) r1 in
  let r2 = add_round ctx ~round:2 ~parents:r1_partial () in
  let r3 = add_round ctx ~round:3 ~parents:r2 () in
  let _r4 = add_round ctx ~round:4 ~parents:r3 () in
  let anchors = segment_anchors ctx in
  checkb "something committed" true (anchors <> []);
  (* Candidate (1,1) must never be an anchor of any segment. *)
  checkb "skipped candidate not an anchor" true
    (not (List.exists (fun (r, a, _) -> r = 1 && a = 1) anchors));
  (* Its node is also not in any causal history (nothing references it). *)
  let all_nodes =
    List.concat_map (fun (s : Driver.segment) -> s.Driver.nodes) ctx.segments
  in
  checkb "orphan not ordered" true
    (not
       (List.exists
          (fun cn -> cn.Types.cn_node.Types.round = 1 && cn.Types.cn_node.Types.author = 1)
          all_nodes));
  (* The other round-1 candidates (authors 0,2,3 — after the skip-to) and
     round-2+ anchors commit; ordering stats reflect at least one skip. *)
  let stats = Driver.stats ctx.driver in
  checkb "skip recorded" true (stats.Driver.skipped_anchors > 0)

(* A silent author's slot must not hold the lane-round open once it has
   been skipped: the segment before it closes the turn (its author's miss
   streak is >= 1). Before the first skip it does hold the turn open. The
   candidate that followed each segment is read off the driver's own event
   stream: the first later commit or skip of the same anchor round, past
   the skips the segment itself carried. *)
let test_driver_silent_slot_closes_turn () =
  (* Author 2 is silent; round 1's cold-start vector is [3; 0; 1; 2]. *)
  let trace = Shoalpp_sim.Trace.create ~enabled:true ~capacity:100_000 () in
  let obs = Shoalpp_sim.Obs.make ~trace ~replica:0 ~instance:0 () in
  let streaks = ref [] in
  let observe d (s : Driver.segment) =
    let rep = Driver.reputation d in
    streaks := (s.Driver.closes_turn, Array.init 4 (Reputation.miss_streak rep)) :: !streaks
  in
  let ctx = make_driver ~reputation:true ~obs ~observe () in
  let last_round = 24 in
  let prev = ref [] in
  for round = 0 to last_round do
    let parents = if round = 0 then [] else !prev in
    prev := add_round ctx ~round ~parents ~authors:[ 0; 1; 3 ] ()
  done;
  let emitted = Array.of_list (List.rev !streaks) in
  let events =
    Array.of_list
      (List.filter_map
         (fun (ev : Shoalpp_sim.Trace.event) ->
           match ev.Shoalpp_sim.Trace.kind with
           | Shoalpp_sim.Trace.Segment_committed { round; anchor; _ } -> Some (`Seg, round, anchor)
           | Shoalpp_sim.Trace.Anchor_skipped { round; anchor } -> Some (`Skip, round, anchor)
           | _ -> None)
         (Shoalpp_sim.Trace.events trace))
  in
  let next_candidate i round =
    let j = ref (i + 1) in
    while !j < Array.length events && (match events.(!j) with `Skip, _, _ -> true | _ -> false) do
      incr j
    done;
    let found = ref None in
    while !found = None && !j < Array.length events do
      (match events.(!j) with _, r, a when r = round -> found := Some a | _ -> ());
      incr j
    done;
    !found
  in
  let seg = ref 0 and held = ref 0 and flagged_by_streak = ref 0 in
  Array.iteri
    (fun i (kind, round, anchor) ->
      if kind = `Seg then begin
        let closes, streak = emitted.(!seg) in
        incr seg;
        if round <= last_round - 4 then begin
          let next = next_candidate i round in
          let expected = match next with None -> true | Some a -> streak.(a) >= 1 in
          checkb (Printf.sprintf "segment (%d, %d) closes_turn" round anchor) expected closes;
          match next with
          | Some 2 when closes -> incr flagged_by_streak
          | Some 2 -> incr held
          | _ -> ()
        end
      end)
    events;
  checki "one flag per segment" (Array.length emitted) !seg;
  checkb "the silent slot held a turn open before its first skip" true (!held >= 1);
  checkb "and closed the turn once skipped" true (!flagged_by_streak >= 1)

let test_driver_two_replicas_agree () =
  (* Replay the same DAG into two drivers with different notify timings:
     the ordered logs must be identical (Property 2 / Lemma 2). *)
  let build notify_every =
    let ctx = make_driver () in
    let counter = ref 0 in
    let maybe_notify () =
      incr counter;
      if !counter mod notify_every = 0 then Driver.notify ctx.driver
    in
    let r0 = ref [] and prev = ref [] in
    for round = 0 to 5 do
      let parents = if round = 0 then [] else !prev in
      let cns = List.map (fun a -> certify (make_node ~round ~author:a ~parents ())) [ 0; 1; 2; 3 ] in
      List.iter
        (fun cn ->
          ignore (Store.note_proposal ctx.store cn.Types.cn_node);
          ignore (Store.add_certified ctx.store cn);
          maybe_notify ())
        cns;
      prev := List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns;
      if round = 0 then r0 := !prev
    done;
    Driver.notify ctx.driver;
    List.map
      (fun (s : Driver.segment) ->
        ( s.Driver.anchor.Types.ref_round,
          s.Driver.anchor.Types.ref_author,
          List.map
            (fun cn -> (cn.Types.cn_node.Types.round, cn.Types.cn_node.Types.author))
            s.Driver.nodes ))
      (List.rev ctx.segments)
  in
  let log1 = build 1 and log7 = build 7 in
  checkb "non-empty" true (log1 <> []);
  checkb "identical ordered logs" true (log1 = log7)

let test_driver_bullshark_mode () =
  let ctx = make_driver ~mode:Anchors.Every_other_round ~fast:false () in
  let prev = ref [] in
  for round = 0 to 5 do
    let parents = if round = 0 then [] else !prev in
    prev := add_round ctx ~round ~parents ()
  done;
  let anchors = segment_anchors ctx in
  (* Anchors only in odd rounds, one per round. *)
  List.iter (fun (r, _, _) -> checkb "odd round" true (r mod 2 = 1)) anchors;
  checkb "multiple waves" true (List.length anchors >= 2);
  (* Everything from covered rounds is ordered. *)
  let stats = Driver.stats ctx.driver in
  checkb "nodes ordered" true (stats.Driver.nodes_ordered >= 12)

let test_driver_gc_requested () =
  let gc_calls = ref [] in
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let cfg = { (Driver.default_config ~committee) with Driver.gc_depth = 2 } in
  let driver =
    Driver.create cfg
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map (fun cn -> Types.ref_of_node cn.Types.cn_node) (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment = (fun _ -> ());
        request_gc = (fun ~round -> gc_calls := round :: !gc_calls);
        direct_guard = None;
      }
      ~store
  in
  let prev = ref [] in
  for round = 0 to 6 do
    let parents = if round = 0 then [] else !prev in
    let cns = List.map (fun a -> certify (make_node ~round ~author:a ~parents ())) [ 0; 1; 2; 3 ] in
    List.iter
      (fun cn ->
        ignore (Store.note_proposal store cn.Types.cn_node);
        ignore (Store.add_certified store cn);
        Driver.notify driver)
      cns;
    prev := List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns
  done;
  checkb "gc requested below horizon" true (List.exists (fun r -> r >= 1) !gc_calls)

let test_driver_stats_consistent () =
  let ctx = make_driver () in
  let prev = ref [] in
  for round = 0 to 4 do
    let parents = if round = 0 then [] else !prev in
    prev := add_round ctx ~round ~parents ()
  done;
  let stats = Driver.stats ctx.driver in
  checki "segments = commits"
    (stats.Driver.fast_commits + stats.Driver.direct_commits + stats.Driver.indirect_commits)
    stats.Driver.segments;
  checki "segments = emitted" (List.length ctx.segments) stats.Driver.segments

let suite =
  [
    ( "consensus.reputation",
      [
        Alcotest.test_case "cold start all eligible" `Quick test_reputation_cold_start_all;
        Alcotest.test_case "disabled round robin" `Quick test_reputation_disabled_round_robin;
        Alcotest.test_case "supporters vs stragglers" `Quick test_reputation_supporters_vs_stragglers;
        Alcotest.test_case "duplicate supporters once" `Quick test_reputation_duplicate_supporters_once;
        Alcotest.test_case "recovers" `Quick test_reputation_recovers;
        Alcotest.test_case "scores order" `Quick test_reputation_scores_order;
        Alcotest.test_case "window eviction" `Quick test_reputation_window_eviction;
        Alcotest.test_case "determinism" `Quick test_reputation_determinism;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_reputation_matches_sort_definition ] );
    ( "consensus.anchors",
      [
        Alcotest.test_case "modes" `Quick test_anchor_modes;
        Alcotest.test_case "bullshark rotation" `Quick test_bullshark_anchor_rotation_covers_all;
        Alcotest.test_case "instance anchor" `Quick test_instance_anchor_is_head;
      ] );
    ( "consensus.driver",
      [
        Alcotest.test_case "fast commit" `Quick test_driver_fast_commit;
        Alcotest.test_case "fast needs 2f+1" `Quick test_driver_fast_needs_fast_quorum;
        Alcotest.test_case "direct commit" `Quick test_driver_direct_commit_without_fast;
        Alcotest.test_case "direct needs f+1" `Quick test_driver_direct_needs_weak_quorum;
        Alcotest.test_case "indirect skip" `Quick test_driver_indirect_skip;
        Alcotest.test_case "silent slot closes the turn" `Quick test_driver_silent_slot_closes_turn;
        Alcotest.test_case "replicas agree" `Quick test_driver_two_replicas_agree;
        Alcotest.test_case "bullshark mode" `Quick test_driver_bullshark_mode;
        Alcotest.test_case "gc requested" `Quick test_driver_gc_requested;
        Alcotest.test_case "stats consistent" `Quick test_driver_stats_consistent;
      ] );
  ]
