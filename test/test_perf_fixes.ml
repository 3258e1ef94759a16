(* Regression tests for the hot-path performance pass: the metrics warmup
   rule, the engine's run-to-horizon semantics, SKIP_TO schedule elision,
   and a golden determinism check pinning the optimized hot paths (packed
   keys, memoized causal histories, lazy validation, batched fan-out) to
   byte-identical behaviour — same commit sequence, same rule mix, same
   audit — for a fixed seed. *)

module Engine = Shoalpp_sim.Engine
module Metrics = Shoalpp_runtime.Metrics
module Report = Shoalpp_runtime.Report
module E = Shoalpp_runtime.Experiment
module Export = Shoalpp_runtime.Export
module Stats = Shoalpp_support.Stats
module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Driver = Shoalpp_consensus.Driver
module Anchors = Shoalpp_consensus.Anchors

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Metrics: one warmup rule, judged on commit time, for both the scalar
   counters and the windowed series. *)

let series_total series =
  (* rate_series reports tx/s over 1 s windows: summing gives commits. *)
  List.fold_left (fun acc (_, v) -> acc +. v) 0.0 series

let test_warmup_judged_on_commit_time () =
  let m = Metrics.create ~warmup_ms:1000.0 ~window_ms:1000.0 () in
  (* Submitted during warmup, committed after: measures the steady-state
     commit path, so every view must include it. *)
  Metrics.observe_commit m ~submitted:500.0 ~now:1500.0;
  (* Committed during warmup: no view may include it. *)
  Metrics.observe_commit m ~submitted:100.0 ~now:900.0;
  checki "committed counter" 1 (Metrics.committed m);
  checki "latency samples" 1 (Stats.Summary.count (Metrics.latency m));
  checkf "latency of the counted tx" 1000.0 (Stats.Summary.mean (Metrics.latency m));
  checkf "series total agrees with counter" 1.0 (series_total (Metrics.throughput_series m))

let test_warmup_counters_and_series_agree () =
  (* Commits straddling the cutoff in both submit/commit combinations: the
     scalar counter and the series must agree exactly (the old code judged
     the counter on submit time and the series on commit time). *)
  let m = Metrics.create ~warmup_ms:2000.0 ~window_ms:1000.0 () in
  List.iter
    (fun (submitted, committed) -> Metrics.observe_commit m ~submitted ~now:committed)
    [
      (500.0, 1500.0) (* in-warmup commit: excluded *);
      (1500.0, 2500.0) (* warmup submit, steady commit: included *);
      (2500.0, 3500.0) (* steady both: included *);
      (100.0, 1999.0) (* in-warmup commit: excluded *);
    ];
  checki "committed" 2 (Metrics.committed m);
  checkf "series total" 2.0 (series_total (Metrics.throughput_series m));
  checki "latency count matches" 2 (Stats.Summary.count (Metrics.latency m))

(* ------------------------------------------------------------------ *)
(* Engine: run-to-horizon is gated on the queue being drained of due
   events, never on leftover budget; cancelled timers cannot leak events
   past the horizon. *)

let test_run_status_horizon_vs_budget () =
  let e = Engine.create () in
  for _ = 1 to 3 do
    ignore (Engine.schedule e ~after:10.0 (fun () -> ()))
  done;
  (* Budget expires with a due event still pending. *)
  Alcotest.check
    (Alcotest.testable
       (fun fmt r ->
         Format.pp_print_string fmt
           (match r with
           | Engine.Horizon_reached -> "horizon"
           | Engine.Queue_drained -> "drained"
           | Engine.Budget_exhausted -> "budget"))
       ( = ))
    "budget exhausted" Engine.Budget_exhausted
    (Engine.run_status ~until:50.0 ~max_events:2 e);
  checkf "clock stays at last event" 10.0 (Engine.now e);
  (* Budget expires exactly as the queue drains: that is still the horizon. *)
  checkb "horizon (exact budget)" true
    (Engine.run_status ~until:50.0 ~max_events:1 e = Engine.Horizon_reached);
  checkf "clock advanced to horizon" 50.0 (Engine.now e)

let test_run_status_queue_drained () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:5.0 (fun () -> ()));
  checkb "drained without horizon" true (Engine.run_status e = Engine.Queue_drained);
  checkb "empty queue, zero budget, horizon still reached" true
    (Engine.run_status ~until:9.0 ~max_events:0 e = Engine.Horizon_reached);
  checkf "clock at horizon" 9.0 (Engine.now e)

let test_cancelled_timer_does_not_leak_past_horizon () =
  let e = Engine.create () in
  let fired_late = ref false in
  let t1 = Engine.schedule e ~after:10.0 (fun () -> ()) in
  ignore (Engine.schedule e ~after:100.0 (fun () -> fired_late := true));
  Engine.cancel t1;
  (* The cancelled timer sits below the horizon; stepping over it must not
     fire the event beyond the horizon. *)
  checkb "horizon reached" true (Engine.run_status ~until:50.0 e = Engine.Horizon_reached);
  checkb "event past horizon did not fire" false !fired_late;
  checkf "clock at horizon" 50.0 (Engine.now e);
  Engine.run e;
  checkb "fires after the horizon is lifted" true !fired_late

(* ------------------------------------------------------------------ *)
(* SKIP_TO: the resumed vector is the strict schedule suffix after the
   committed anchor; everything elided is counted as skipped. *)

let committee = Committee.make ~n:4 ()

let make_node ~round ~author ~parents () =
  let batch =
    Shoalpp_workload.Batch.make
      ~txns:[ Shoalpp_workload.Transaction.make ~id:((round * 100) + author) ~submitted_at:0.0 ~origin:author () ]
      ~created_at:0.0
  in
  let digest =
    Types.node_digest ~round ~author ~batch_digest:batch.Shoalpp_workload.Batch.digest ~parents
      ~weak_parents:[]
  in
  let kp = Committee.keypair committee author in
  {
    Types.round;
    author;
    batch;
    parents;
    weak_parents = [];
    digest;
    signature = Shoalpp_crypto.Signer.sign kp (Shoalpp_crypto.Digest32.raw digest);
    created_at = 0.0;
  }

let certify node =
  let preimage =
    Types.vote_preimage ~round:node.Types.round ~author:node.Types.author ~digest:node.Types.digest
  in
  let sigs =
    List.map
      (fun i -> (i, Shoalpp_crypto.Signer.sign (Committee.keypair committee i) preimage))
      [ 0; 1; 2 ]
  in
  { Types.cn_node = node; cn_cert = { Types.cert_ref = Types.ref_of_node node; multisig = Shoalpp_crypto.Multisig.aggregate ~n:4 sigs } }

type ctx = { store : Store.t; driver : Driver.t; mutable segments : Driver.segment list }

let make_driver () =
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let ctx = ref None in
  let cfg =
    { (Driver.default_config ~committee) with Driver.fast_commit = false; reputation_enabled = false }
  in
  let driver =
    Driver.create cfg
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map (fun cn -> Types.ref_of_node cn.Types.cn_node) (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment = (fun s -> match !ctx with Some c -> c.segments <- s :: c.segments | None -> ());
        request_gc = (fun ~round:_ -> ());
        direct_guard = None;
      }
      ~store
  in
  let c = { store; driver; segments = [] } in
  ctx := Some c;
  c

let add_round ctx ~round ~parents ?(authors = [ 0; 1; 2; 3 ]) () =
  let cns = List.map (fun author -> certify (make_node ~round ~author ~parents ())) authors in
  List.iter
    (fun cn ->
      ignore (Store.note_proposal ctx.store cn.Types.cn_node);
      ignore (Store.add_certified ctx.store cn);
      Driver.notify ctx.driver)
    cns;
  List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns

let test_skip_to_elides_schedule_prefix () =
  (* Round-1 head candidate (author 1 under rotation) is referenced by
     nobody: resolution jumps via SKIP_TO to the instance anchor (3, 3).
     The §5.2 elision must (a) count the whole abandoned round-1 vector as
     skipped, (b) resume with exactly the schedule suffix after the
     committed anchor — candidates 0, 1, 2 of round 3, in that order. *)
  let ctx = make_driver () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  let r1_partial = List.filter (fun (r : Types.node_ref) -> r.Types.ref_author <> 1) r1 in
  let r2 = add_round ctx ~round:2 ~parents:r1_partial () in
  let r3 = add_round ctx ~round:3 ~parents:r2 () in
  ignore (add_round ctx ~round:4 ~parents:r3 ());
  let anchors =
    List.rev_map
      (fun (s : Driver.segment) ->
        (s.Driver.anchor.Types.ref_round, s.Driver.anchor.Types.ref_author, s.Driver.kind))
      ctx.segments
  in
  Alcotest.(check (list (triple int int bool)))
    "SKIP_TO target, then the round-3 suffix in schedule order"
    [ (3, 3, true); (3, 0, false); (3, 1, false); (3, 2, false) ]
    (List.map (fun (r, a, k) -> (r, a, k = Driver.Indirect)) anchors);
  let stats = Driver.stats ctx.driver in
  (* The whole round-1 vector [1; 2; 3; 0] was elided; the committed anchor
     heads round 3's vector, so no round-3 candidate precedes it. *)
  checki "skipped = elided candidates" 4 stats.Driver.skipped_anchors;
  checki "indirect commit recorded once" 1 stats.Driver.indirect_commits

(* ------------------------------------------------------------------ *)
(* Golden determinism: for a fixed seed, a full cluster run must produce a
   byte-identical trace (commit sequence included), rule mix and audit.
   The digests below were captured before the hot-path optimizations; the
   optimizations must not move them. *)

let golden_digest system =
  Shoalpp_baselines.Register.register ();
  let params =
    {
      E.default_params with
      E.n = 4;
      load_tps = 500.0;
      duration_ms = 3_000.0;
      warmup_ms = 500.0;
      seed = 11;
      verify_signatures = false;
      trace = true;
      trace_capacity = 262_144;
    }
  in
  let o = E.run system params in
  let r = o.E.report in
  let summary =
    Printf.sprintf "committed=%d fast=%d direct=%d indirect=%d skipped=%d audit=%b"
      r.Report.committed r.Report.fast_commits r.Report.direct_commits r.Report.indirect_commits
      r.Report.skipped_anchors o.E.audit_ok
  in
  Shoalpp_crypto.Sha256.to_hex
    (Shoalpp_crypto.Sha256.digest_string (Export.jsonl_of_events o.E.events ^ "\n" ^ summary))

let golden = [ ("shoal++", E.Shoalpp, "80b8a19140a933935f53514982a7f09980e71ab01771b99ee0c3455b56cd268d"); ("jolteon", E.Jolteon, "2a5c05b857fd76d4c69cb435246f01d94b1cd9068b56808e11bc7991646f01f6"); ("mysticeti", E.Mysticeti, "c2dc2dda8eeb7a9e265243ef23ca96245e446352a399bb63c347d4308e450efe") ]

let test_golden_cluster_digests () =
  List.iter
    (fun (name, system, expected) ->
      let d = golden_digest system in
      (* Re-running in the same process must also reproduce it (no hidden
         global state in the optimized paths). *)
      checks (name ^ " stable across runs") d (golden_digest system);
      checks (name ^ " golden digest") expected d)
    golden

(* ------------------------------------------------------------------ *)
(* Allocation guards on the per-message receive path: validating a
   proposal and crediting an ordered segment must stay within a small
   fixed word budget however many parents the node carries. *)

let words_per_call ~iters f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let committee50 = Committee.make ~n:50 ~cluster_seed:3 ()

let node_with_34_parents =
  let parents =
    List.init 34 (fun author ->
        {
          Types.ref_round = 6;
          ref_author = author;
          ref_digest = Shoalpp_crypto.Digest32.of_string (string_of_int author);
        })
  in
  let batch = Shoalpp_workload.Batch.empty ~created_at:0.0 in
  let digest =
    Types.node_digest ~round:7 ~author:40 ~batch_digest:batch.Shoalpp_workload.Batch.digest
      ~parents ~weak_parents:[]
  in
  {
    Types.round = 7;
    author = 40;
    batch;
    parents;
    weak_parents = [];
    digest;
    signature =
      Shoalpp_crypto.Signer.sign (Committee.keypair committee50 40) (Shoalpp_crypto.Digest32.raw digest);
    created_at = 0.0;
  }

let test_validate_proposal_word_budget () =
  let validate verify_signatures () =
    match
      Shoalpp_dag.Validation.validate_proposal ~committee:committee50 ~verify_signatures
        node_with_34_parents
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "n=50 node rejected: %s" e
  in
  let structural = words_per_call ~iters:200 (validate false) in
  checkb (Printf.sprintf "structural checks: %.0f words <= 64" structural) true (structural <= 64.0);
  let signed = words_per_call ~iters:200 (validate true) in
  checkb (Printf.sprintf "with signature: %.0f words <= 192" signed) true (signed <= 192.0)

let test_observe_segment_word_budget () =
  let r = Shoalpp_consensus.Reputation.create ~n:50 ~window:4 ~enabled:true () in
  let parents = node_with_34_parents.Types.parents in
  let node =
    {
      Types.cn_node = node_with_34_parents;
      cn_cert =
        {
          Types.cert_ref = Types.ref_of_node node_with_34_parents;
          multisig = Shoalpp_crypto.Multisig.aggregate ~n:50 [];
        };
    }
  in
  let nodes = List.init 50 (fun _ -> node) in
  let round = ref 8 in
  let words =
    words_per_call ~iters:200 (fun () ->
        incr round;
        Shoalpp_consensus.Reputation.observe_segment r ~anchor_round:!round ~anchor:40 ~parents
          ~nodes)
  in
  (* 35 supporters: the stored list is 35 cons cells (3 words each) plus
     the window queue's cell. *)
  let stored = float_of_int ((35 * 3) + 3) in
  checkb (Printf.sprintf "%.0f words <= stored list (%.0f words) + 8" words stored) true
    (words <= stored +. 8.0)

let test_note_proposal_word_budget () =
  let store = Store.create ~n:50 ~genesis_digest:committee50.Committee.genesis in
  let rounds = 20 in
  let nodes =
    Array.init rounds (fun r ->
        let round = r + 1 in
        let parents =
          List.map
            (fun (p : Types.node_ref) -> { p with Types.ref_round = round - 1 })
            node_with_34_parents.Types.parents
        in
        Array.init 50 (fun author -> { node_with_34_parents with Types.round; author; parents }))
  in
  (* Author 0 of each round creates the round's slot and its parents'
     slot, so the measured calls only look slots up. *)
  Array.iter (fun round -> ignore (Store.note_proposal store round.(0))) nodes;
  let before = Gc.minor_words () in
  Array.iter
    (fun round ->
      for author = 1 to 49 do
        ignore (Sys.opaque_identity (Store.note_proposal store round.(author)))
      done)
    nodes;
  let words = (Gc.minor_words () -. before) /. float_of_int (rounds * 49) in
  checkb (Printf.sprintf "note_proposal, 34 parents: %.1f words <= 8" words) true (words <= 8.0);
  checki "weak votes counted" (rounds * 50)
    (List.fold_left (fun acc r -> acc + Store.weak_votes store ~round:r ~author:0) 0
       (List.init rounds Fun.id))

let suite =
  [
    ( "perf-fixes.alloc",
      [
        Alcotest.test_case "validate_proposal n=50, 34 parents" `Quick
          test_validate_proposal_word_budget;
        Alcotest.test_case "observe_segment stores only its list" `Quick
          test_observe_segment_word_budget;
        Alcotest.test_case "note_proposal, one slot lookup" `Quick test_note_proposal_word_budget;
      ] );
    ( "perf-fixes.metrics",
      [
        Alcotest.test_case "warmup judged on commit time" `Quick test_warmup_judged_on_commit_time;
        Alcotest.test_case "counters and series agree" `Quick test_warmup_counters_and_series_agree;
      ] );
    ( "perf-fixes.engine",
      [
        Alcotest.test_case "horizon vs budget" `Quick test_run_status_horizon_vs_budget;
        Alcotest.test_case "queue drained / zero budget" `Quick test_run_status_queue_drained;
        Alcotest.test_case "cancelled timer below horizon" `Quick
          test_cancelled_timer_does_not_leak_past_horizon;
      ] );
    ( "perf-fixes.skip-to",
      [ Alcotest.test_case "elides schedule prefix" `Quick test_skip_to_elides_schedule_prefix ] );
    ( "perf-fixes.golden",
      [ Alcotest.test_case "cluster digests" `Slow test_golden_cluster_digests ] );
  ]
