(* One benchmark episode: build a workload from the public constructors,
   run it, audit it, and print one JSON object on stdout.

   perfbench/run.py runs one process per episode, so every episode starts
   from a fresh heap: allocation counts repeat exactly for a simulated
   seed, and no episode's heap leaks into another's peak. Each workload's
   parameters come on the command line from perfbench/workloads.json.

   Two executors:
   - [sim]: the discrete-event simulator ({!Backend_sim}) on the gcp10
     topology with the per-replica Poisson clients of {!Client}; times are
     simulated milliseconds, host cost is wall/CPU time of the run.
   - [node]: the wall-clock executor ({!Backend_realtime}) over in-process
     loopback with a fixed link delay, fed by this file's own seeded
     open-loop generator, in a latency phase and then a capacity phase.

   With [--traced 1] the replicas run against {!Tracer}'s delegating
   backend and the episode adds per-layer figures and the replay stage. *)

module Backend = Shoalpp_backend.Backend
module Backend_sim = Shoalpp_backend.Backend_sim
module Realtime = Shoalpp_backend.Backend_realtime
module Topology = Shoalpp_sim.Topology
module Fault_schedule = Shoalpp_sim.Fault_schedule
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Committee = Shoalpp_dag.Committee
module Store = Shoalpp_dag.Store
module Driver = Shoalpp_consensus.Driver
module Mempool = Shoalpp_workload.Mempool
module Client = Shoalpp_workload.Client
module Transaction = Shoalpp_workload.Transaction
module Wal = Shoalpp_storage.Wal
module Telemetry = Shoalpp_support.Telemetry
module Rng = Shoalpp_support.Rng
module E = Shoalpp_runtime.Experiment
module Fbuf = Harness.Fbuf

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  mutable name : string;
  mutable kind : string;  (** "sim" or "node" *)
  mutable n : int;
  mutable load : float;  (** offered tx/s (node: latency phase) *)
  mutable cap_load : float;  (** node: capacity phase offered tx/s *)
  mutable verify : bool;
  mutable ckpt : int;
  mutable crash : (int * float * float) option;  (** replica, crash ms, recover ms *)
  mutable link_delay : float;
  mutable warmup : float;
  mutable window : float;
  mutable limit : float;
  mutable cap_warmup : float;
  mutable cap_window : float;
  mutable seed : int;
  mutable cluster_seed : int;
  mutable traced : bool;
  mutable spans_out : string;
}

let parse_args () =
  let a =
    {
      name = "";
      kind = "sim";
      n = 4;
      load = 1000.0;
      cap_load = 0.0;
      verify = true;
      ckpt = 0;
      crash = None;
      link_delay = 0.0;
      warmup = 1000.0;
      window = 1000.0;
      limit = 1000.0;
      cap_warmup = 0.0;
      cap_window = 0.0;
      seed = 1;
      cluster_seed = 1;
      traced = false;
      spans_out = "";
    }
  in
  let crash s =
    match List.map float_of_string (String.split_on_char ',' s) with
    | [ r; at; back ] -> a.crash <- Some (int_of_float r, at, back)
    | _ -> raise (Arg.Bad "--crash REPLICA,AT_MS,RECOVER_MS")
  in
  Arg.parse
    [
      ("--name", Arg.String (fun s -> a.name <- s), "workload name");
      ("--kind", Arg.String (fun s -> a.kind <- s), "sim | node");
      ("--n", Arg.Int (fun v -> a.n <- v), "replicas");
      ("--load", Arg.Float (fun v -> a.load <- v), "offered tx/s");
      ("--cap-load", Arg.Float (fun v -> a.cap_load <- v), "node capacity phase tx/s");
      ("--verify", Arg.Int (fun v -> a.verify <- v <> 0), "signature checks 0|1");
      ("--ckpt", Arg.Int (fun v -> a.ckpt <- v), "checkpoint interval (0 = off)");
      ("--crash", Arg.String crash, "REPLICA,AT_MS,RECOVER_MS");
      ("--link-delay", Arg.Float (fun v -> a.link_delay <- v), "node loopback delay ms");
      ("--warmup-ms", Arg.Float (fun v -> a.warmup <- v), "warmup before the window");
      ("--window-ms", Arg.Float (fun v -> a.window <- v), "measured submit window");
      ("--limit-ms", Arg.Float (fun v -> a.limit <- v), "latency limit");
      ("--cap-warmup-ms", Arg.Float (fun v -> a.cap_warmup <- v), "node capacity warmup");
      ("--cap-window-ms", Arg.Float (fun v -> a.cap_window <- v), "node capacity window");
      ("--seed", Arg.Int (fun v -> a.seed <- v), "traffic seed");
      ( "--cluster-seed",
        Arg.Int (fun v -> a.cluster_seed <- v),
        "deployment seed: keys and simulated network randomness" );
      ("--traced", Arg.Int (fun v -> a.traced <- v <> 0), "traced run 0|1");
      ("--spans-out", Arg.String (fun s -> a.spans_out <- s), "file for the raw spans");
    ]
    (fun s -> raise (Arg.Bad s))
    "shoalpp_perf.exe --kind sim|node [options]";
  a

(* ------------------------------------------------------------------ *)
(* JSON output *)

type json = F of float | I of int | B of bool | S of string | L of json list | O of (string * json) list

let rec emit b = function
  | F x when Float.is_finite x -> Buffer.add_string b (Printf.sprintf "%.17g" x)
  | F _ -> Buffer.add_string b "null"
  | I i -> Buffer.add_string b (string_of_int i)
  | B v -> Buffer.add_string b (if v then "true" else "false")
  | S s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | L l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        emit b v)
      l;
    Buffer.add_char b ']'
  | O fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "%S:" k;
        emit b v)
      fields;
    Buffer.add_char b '}'

(* ------------------------------------------------------------------ *)
(* Measurement helpers *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections, s.Gc.promoted_words)

let heap_peak_mwords () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6

(* Set-ups timed per episode: the first pays the process's cold start, the
   median of several is the steady cost. *)
let setups = 7

(* Build the workload [setups] times, timing each, and keep the last. *)
let timed_setups build =
  let times = ref [] and last = ref None in
  for _ = 1 to setups do
    let t0 = Unix.gettimeofday () in
    let w = build () in
    times := (Unix.gettimeofday () -. t0) :: !times;
    last := Some w
  done;
  Gc.compact ();
  (List.rev !times, Option.get !last)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_ktx count txs = ratio (1000.0 *. float_of_int count) (float_of_int txs)
let mean buf = ratio (Array.fold_left ( +. ) 0.0 (Fbuf.to_array buf)) (float_of_int buf.Fbuf.len)

(* Latency figures over the attempted transactions: a transaction fails
   when it was refused or not ordered at its origin within the limit. *)
let latency_figures (h : Harness.t) ids ~limit =
  let lat = Array.map (Fbuf.get h.Harness.latency) ids in
  let failed = Array.fold_left (fun acc l -> if Float.is_nan l || l > limit then acc + 1 else acc) 0 lat in
  let samples = Array.fold_left (fun acc l -> if Float.is_nan l then acc else acc + 1) 0 lat in
  ( Array.length ids,
    failed,
    samples,
    Harness.quantile lat 0.5,
    Harness.quantile lat 0.99,
    Harness.quantile lat 1.0 )

let all_ordered (h : Harness.t) ids =
  Array.for_all (fun id -> not (Float.is_nan (Fbuf.get h.Harness.latency id))) ids

(* Per-layer figures every executor reports: core dispatch, dag,
   consensus, storage, sync, workload and runtime. *)
let common_layers ~(tracer : Tracer.t) ~(h : Harness.t) ~config ~telemetry ~gc0 ~gc1
    ~(replay : Replay.result) ~run_ns =
  let replicas = h.Harness.replicas in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 replicas in
  let inst f = sum (fun r -> List.fold_left (fun acc s -> acc + f s) 0 (Replica.instance_stats r)) in
  let drv f = sum (fun r -> List.fold_left (fun acc s -> acc + f s) 0 (Replica.driver_stats r)) in
  let fast = drv (fun s -> s.Driver.fast_commits) in
  let committed = fast + drv (fun s -> s.Driver.direct_commits) + drv (fun s -> s.Driver.indirect_commits) in
  let k = config.Config.num_dags in
  let retained =
    Array.fold_left
      (fun acc r ->
        let lanes = List.init k (fun d -> Replica.store r ~dag_id:d) in
        List.fold_left
          (fun acc s -> acc + (Store.highest_round s - Store.lowest_stored s + 1))
          acc lanes)
      0 replicas
  in
  let interval = Config.effective_checkpoint_interval config in
  let boundaries =
    if interval = 0 then 0
    else sum (fun r -> (Replica.base_seq r + Replica.log_length r) / interval)
  in
  let certified = Telemetry.get_counter telemetry "ck.certified" in
  let wal_syncs = sum (fun r -> Wal.syncs (Replica.wal r)) in
  let wal_retained =
    sum (fun r -> List.fold_left (fun acc (_, c) -> acc + c) 0 (Wal.segments (Replica.wal r)))
  in
  let sync_req = sum (fun r -> fst (Replica.sync_stats r)) in
  let sync_certs = sum (fun r -> snd (Replica.sync_stats r)) in
  let txs = h.Harness.origin_commits in
  let deliver =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun kind name ->
              [
                (Printf.sprintf "core.deliver.%s.count" name, float_of_int tracer.Tracer.count.(kind));
                (Printf.sprintf "core.deliver.%s.self_s" name, Tracer.seconds tracer.Tracer.self_ns.(kind));
              ])
            Tracer.message_kinds))
  in
  let verify_ns =
    if config.Config.verify_signatures then
      List.fold_left
        (fun acc kind -> acc +. (float_of_int tracer.Tracer.count.(kind) *. replay.Replay.verify_ns.(kind)))
        0.0 [ 0; 1; 2 ]
    else 0.0
  in
  let minor0, major0, promoted0 = gc0 and minor1, major1, promoted1 = gc1 in
  deliver
  @ [
      ("core.timer.count", float_of_int tracer.Tracer.count.(Tracer.replica_timer));
      ("core.timer.self_s", Tracer.seconds tracer.Tracer.self_ns.(Tracer.replica_timer));
      ("core.merge_wait_p50_ms", Harness.quantile (Fbuf.to_array h.Harness.merge_wait) 0.5);
      ( "core.pending_segments",
        ratio (float_of_int h.Harness.pending_sum) (float_of_int h.Harness.pending_samples) );
      ("core.requeued", float_of_int (sum Replica.requeued));
      ("dag.proposals", float_of_int (inst (fun (p, _, _, _) -> p)));
      ("dag.votes", float_of_int (inst (fun (_, v, _, _) -> v)));
      ("dag.certs_formed", float_of_int (inst (fun (_, _, c, _) -> c)));
      ("dag.fetches", float_of_int (inst (fun (_, _, _, f) -> f)));
      ( "dag.proposal_to_commit_p50_ms",
        Harness.quantile (Fbuf.to_array h.Harness.proposal_to_commit) 0.5 );
      ("dag.retained_rounds", ratio (float_of_int retained) (float_of_int (k * h.Harness.n)));
      ("consensus.fast_share", ratio (float_of_int fast) (float_of_int committed));
      ("consensus.indirect", float_of_int (drv (fun s -> s.Driver.indirect_commits)));
      ("consensus.skipped", float_of_int (drv (fun s -> s.Driver.skipped_anchors)));
      ("crypto.verify_share", ratio verify_ns (float_of_int run_ns));
      ("storage.wal_syncs_per_ktx", per_ktx wal_syncs txs);
      ("storage.wal_retained_entries", float_of_int wal_retained);
      ("storage.ck_certified", float_of_int certified);
      ("storage.ck_certified_ratio", ratio (float_of_int certified) (float_of_int boundaries));
      ("sync.requests", float_of_int sync_req);
      ("sync.certs_ingested", float_of_int sync_certs);
      ("sync.catchup_ms", mean h.Harness.catchup_ms);
      ("workload.mempool_wait_p50_ms", Harness.quantile (Fbuf.to_array h.Harness.mempool_wait) 0.5);
      ( "workload.txns_per_proposal",
        ratio (float_of_int h.Harness.txns_in_nodes) (float_of_int h.Harness.nodes_ordered) );
      ("workload.client.count", float_of_int tracer.Tracer.count.(Tracer.client_timer));
      ("workload.client.self_s", Tracer.seconds tracer.Tracer.self_ns.(Tracer.client_timer));
      ("gc.minor_collections", float_of_int (minor1 - minor0));
      ("gc.major_collections", float_of_int (major1 - major0));
      ("gc.promoted_mwords", (promoted1 -. promoted0) /. 1e6);
      (* Wall and CPU time swing by up to a third between runs on the
         shared host, so the traced-minus-untraced difference of one pair is
         mostly noise; the overhead is estimated from the span count and
         the measured cost of one span instead. *)
      (let overhead = float_of_int (Tracer.spans tracer) *. Tracer.span_cost_ns () in
       ("trace.overhead_frac", ratio overhead (float_of_int run_ns -. overhead)));
    ]
  @ replay.Replay.metrics

let checkpoint_for_replay ~committee ~(h : Harness.t) =
  match Replica.latest_checkpoint h.Harness.replicas.(0) with
  | Some ck -> ck
  | None ->
    Replay.synthetic_checkpoint ~committee
      ~seq:(max 0 (Replica.log_length h.Harness.replicas.(0) - 1))
      ~digest:(Harness.digest h)

type outcome = {
  setup_s : float list;
  wall_s : float;
  attempted : int;
  failed : int;
  samples : int;
  committed_tps : float;
  p50 : float;
  p99 : float;
  pmax : float;
  capacity_tps : float;
  cpu_us_per_tx : float;
  alloc_words_per_tx : float;
  heap_peak : float;
  digest : string;
  audit : Harness.audit;
  correct : bool;
  layers : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Simulator workloads *)

type sim_world = {
  s_config : Config.t;
  s_world : Replica.envelope Backend_sim.t;
  s_raw : Replica.envelope Backend.t;
  s_h : Harness.t;
  s_mempools : Mempool.t array;
  s_telemetry : Telemetry.t;
}

let sim_episode a =
  let n = a.n in
  let tracer = if a.traced then Some (Tracer.create ()) else None in
  let params =
    {
      E.default_params with
      E.n;
      load_tps = a.load;
      seed = a.cluster_seed;
      verify_signatures = a.verify;
      checkpoint_interval = a.ckpt;
    }
  in
  let build () =
    let config = E.dag_config E.Shoalpp params in
    let topology = Topology.gcp10 () in
    let world =
      Backend_sim.make ~topology
        ~assignment:(Topology.assign_round_robin topology ~n)
        ~fault:Fault_schedule.none ~config:Backend_sim.default_net_config ~seed:a.cluster_seed ()
    in
    let raw = Backend_sim.backend world in
    let backend = match tracer with Some t -> Tracer.backend t raw | None -> raw in
    let h = Harness.create ~n ~now:(fun () -> Backend.now raw) in
    let mempools = Array.init n (fun _ -> Mempool.create ()) in
    let telemetry = Telemetry.create () in
    h.Harness.replicas <-
      Array.init n (fun i ->
          Replica.create ~config ~replica_id:i ~backend ~mempool:mempools.(i)
            ~on_ordered:(Harness.on_ordered h i)
            ~on_caught_up:(fun () -> Harness.caught_up h i)
            ~telemetry ~retain_wal:(Option.is_some a.crash) ());
    { s_config = config; s_world = world; s_raw = raw; s_h = h; s_mempools = mempools; s_telemetry = telemetry }
  in
  let setup_s, w = timed_setups build in
  let h = w.s_h and raw = w.s_raw in
  (* Per-replica open-loop Poisson clients with disjoint stride-n id
     spaces, so a transaction's origin is its id mod n. *)
  let counters = Array.init n (fun i -> ref i) in
  let clients = Array.make n None in
  let client_timers =
    match tracer with
    | Some t -> Tracer.timers t Tracer.client_timer raw.Backend.timers
    | None -> raw.Backend.timers
  in
  let start_client i =
    clients.(i) <-
      Some
        (Client.start ~clock:raw.Backend.clock ~timers:client_timers ~mempool:w.s_mempools.(i)
           ~origin:i ~rate_tps:(a.load /. float_of_int n) ~seed:(a.seed + i) ~next_id:counters.(i)
           ~stride:n ())
  in
  let w_lo = a.warmup and w_hi = a.warmup +. a.window in
  h.Harness.wait_lo <- w_lo;
  h.Harness.wait_hi <- w_hi;
  h.Harness.tput_lo <- w_lo;
  h.Harness.tput_hi <- w_hi;
  let lo = Array.make n 0 and hi = Array.make n 0 in
  ignore (Backend.schedule_at raw ~at:w_lo (fun () -> Array.iteri (fun i c -> lo.(i) <- !c) counters));
  ignore (Backend.schedule_at raw ~at:w_hi (fun () -> Array.iteri (fun i c -> hi.(i) <- !c) counters));
  let fault = ref Fault_schedule.none in
  (match a.crash with
  | None -> ()
  | Some (r, at, back) ->
    ignore
      (Backend.schedule_at raw ~at (fun () ->
           fault := Fault_schedule.crash !fault ~replica:r ~at;
           Backend_sim.set_fault w.s_world !fault;
           Replica.crash h.Harness.replicas.(r);
           Option.iter Client.stop clients.(r);
           clients.(r) <- None));
    ignore
      (Backend.schedule_at raw ~at:back (fun () ->
           fault := Fault_schedule.recover !fault ~replica:r ~at:back;
           Backend_sim.set_fault w.s_world !fault;
           Harness.recover h r;
           start_client r)));
  (* Transactions whose origin never crashes are the attempted set. *)
  let crashed = match a.crash with Some (r, _, _) -> r | None -> -1 in
  let attempted_ids () =
    let ids = ref [] in
    for i = n - 1 downto 0 do
      if i <> crashed then begin
        let id = ref (hi.(i) - n) in
        while !id >= lo.(i) do
          ids := !id :: !ids;
          id := !id - n
        done
      end
    done;
    Array.of_list !ids
  in
  let gc0 = gc_counts () in
  let alloc0 = Replay.allocated_words () in
  let cpu0 = cpu_s () in
  let ns0 = Tracer.now_ns () in
  Array.iteri
    (fun i r ->
      start_client i;
      Replica.start r)
    h.Harness.replicas;
  Backend_sim.run ~until:w_hi w.s_world;
  let ids = attempted_ids () in
  (* Let the attempted transactions finish, up to the latency limit. *)
  let deadline = w_hi +. a.limit in
  let rec tail at =
    if at < deadline && not (all_ordered h ids) then begin
      let next = Float.min deadline (at +. 100.0) in
      Backend_sim.run ~until:next w.s_world;
      tail next
    end
  in
  tail w_hi;
  let run_ns = Tracer.now_ns () - ns0 in
  let wall = Tracer.seconds run_ns in
  let cpu = cpu_s () -. cpu0 in
  let alloc = Replay.allocated_words () -. alloc0 in
  let gc1 = gc_counts () in
  let heap_peak = heap_peak_mwords () in
  let attempted, failed, samples, p50, p99, pmax = latency_figures h ids ~limit:a.limit in
  let txs = h.Harness.origin_commits in
  let audit = Harness.audit h ~num_dags:w.s_config.Config.num_dags in
  let committee = w.s_config.Config.committee in
  let layers, replay_ok =
    match tracer with
    | None -> ([], true)
    | Some t ->
      let replay = Replay.run ~tracer:t ~committee ~checkpoint:(checkpoint_for_replay ~committee ~h) in
      let stats = Backend.stats raw in
      let control_sent =
        match Backend.control_stats raw with Some s -> s.Backend.Transport.sent | None -> 0
      in
      if a.spans_out <> "" then Tracer.write_spans t a.spans_out;
      ( [
          ("sim.events", float_of_int (Backend_sim.events_fired w.s_world));
          ("sim.send.count", float_of_int t.Tracer.count.(Tracer.send));
          ("sim.send.self_s", Tracer.seconds t.Tracer.self_ns.(Tracer.send));
          ("sim.engine_self_s", Tracer.seconds (run_ns - t.Tracer.top_ns));
          ("sim.msgs_per_ktx", per_ktx (stats.Backend.Transport.sent + control_sent) txs);
          ("sim.bytes_per_tx", ratio stats.Backend.Transport.bytes (float_of_int txs));
        ]
        @ common_layers ~tracer:t ~h ~config:w.s_config ~telemetry:w.s_telemetry ~gc0 ~gc1 ~replay
            ~run_ns,
        replay.Replay.replay_ok )
  in
  {
    setup_s;
    wall_s = wall;
    attempted;
    failed;
    samples;
    committed_tps = float_of_int h.Harness.tput_count /. (a.window /. 1000.0);
    p50;
    p99;
    pmax;
    capacity_tps = float_of_int txs /. wall;
    cpu_us_per_tx = cpu *. 1e6 /. float_of_int txs;
    alloc_words_per_tx = alloc /. float_of_int txs;
    heap_peak;
    digest = Harness.digest h;
    audit;
    correct = Harness.audit_ok audit && replay_ok;
    layers;
  }

(* ------------------------------------------------------------------ *)
(* Wall-clock node workload *)

(* Seeded open-loop generator: one Poisson stream over all origins
   (transaction id mod n), each transaction stamped with the time it was
   DUE, not the time the loop got round to submitting it, so a stalled
   loop shows up as latency; how late the generator ran is recorded. *)
type gen = {
  rng : Rng.t;
  mutable mean_gap_ms : float;
  mutable next_due : float;
  mutable next_id : int;
  mutable stopped : bool;
  mutable win_lo : float;
  mutable win_hi : float;
  mutable lo_id : int;  (** first id due in the window *)
  mutable hi_id : int;  (** first id due after it *)
  lag : Fbuf.t;  (** submit time - due time, window only *)
}

let gen_tick_ms = 1.0

let rec gen_tick g ~n ~mempools ~(clock : Backend.Clock.t) ~(timers : Backend.Timers.t) () =
  if not g.stopped then begin
    let now = clock.Backend.Clock.now () in
    while g.next_due <= now do
      let id = g.next_id and due = g.next_due in
      ignore
        (Mempool.submit mempools.(id mod n)
           (Transaction.make ~id ~submitted_at:due ~origin:(id mod n) ()));
      if due >= g.win_lo && g.lo_id < 0 then g.lo_id <- id;
      if due >= g.win_hi && g.hi_id < 0 then g.hi_id <- id;
      if due >= g.win_lo && due < g.win_hi then Fbuf.push g.lag (now -. due);
      g.next_id <- id + 1;
      g.next_due <- due +. Rng.exponential g.rng g.mean_gap_ms
    done;
    ignore (timers.Backend.Timers.schedule ~after:gen_tick_ms (gen_tick g ~n ~mempools ~clock ~timers))
  end

type node_world = {
  n_config : Config.t;
  n_exec : Realtime.t;
  n_raw : Replica.envelope Backend.t;
  n_h : Harness.t;
  n_mempools : Mempool.t array;
  n_telemetry : Telemetry.t;
}

let node_episode a =
  let n = a.n in
  let tracer = if a.traced then Some (Tracer.create ()) else None in
  let build () =
    let committee = Committee.make ~n ~cluster_seed:a.cluster_seed () in
    (* DAG lanes staggered by one message delay, as the simulator harness
       staggers them by the topology's median one-way delay
       ({!E.dag_config}). *)
    let config = { (Config.shoalpp ~committee) with Config.stagger_ms = a.link_delay } in
    let config = if a.verify then config else Config.without_signature_checks config in
    let config = Config.with_checkpoint_interval config a.ckpt in
    let exec = Realtime.create () in
    let raw = Realtime.backend exec (Realtime.loopback exec ~n ~delay_ms:a.link_delay ()) in
    let backend = match tracer with Some t -> Tracer.backend t raw | None -> raw in
    let h = Harness.create ~n ~now:(fun () -> Realtime.now_ms exec) in
    let mempools = Array.init n (fun _ -> Mempool.create ()) in
    let telemetry = Telemetry.create () in
    h.Harness.replicas <-
      Array.init n (fun i ->
          Replica.create ~config ~replica_id:i ~backend ~mempool:mempools.(i)
            ~on_ordered:(Harness.on_ordered h i)
            ~on_caught_up:(fun () -> Harness.caught_up h i)
            ~telemetry ());
    { n_config = config; n_exec = exec; n_raw = raw; n_h = h; n_mempools = mempools; n_telemetry = telemetry }
  in
  let setup_s, w = timed_setups build in
  let h = w.n_h and exec = w.n_exec and raw = w.n_raw in
  let now () = Realtime.now_ms exec in
  let run_until at = Realtime.run_for exec ~duration_ms:(Float.max 0.0 (at -. now ())) in
  let g =
    {
      rng = Rng.create (a.seed * 7919);
      mean_gap_ms = 1000.0 /. a.load;
      next_due = 0.0;
      next_id = 0;
      stopped = false;
      win_lo = infinity;
      win_hi = infinity;
      lo_id = -1;
      hi_id = -1;
      lag = Fbuf.create ();
    }
  in
  let client_timers =
    match tracer with
    | Some t -> Tracer.timers t Tracer.client_timer raw.Backend.timers
    | None -> raw.Backend.timers
  in
  (* Traced runs also probe the loop: a timer every 5 ms records how late
     it fired (its firings are part of backend.events). *)
  let loop_lag = Fbuf.create () in
  let rec probe due () =
    if due >= g.win_lo && due < g.win_hi then Fbuf.push loop_lag (now () -. due);
    if not g.stopped then ignore (Backend.schedule_at raw ~at:(due +. 5.0) (probe (due +. 5.0)))
  in
  let gc0 = gc_counts () in
  let cpu_start = cpu_s () in
  let ns0 = Tracer.now_ns () in
  let start = now () in
  let w_lo = start +. a.warmup in
  let w_hi = w_lo +. a.window in
  g.win_lo <- w_lo;
  g.win_hi <- w_hi;
  h.Harness.wait_lo <- w_lo;
  h.Harness.wait_hi <- w_hi;
  h.Harness.tput_lo <- w_lo;
  h.Harness.tput_hi <- w_hi;
  Array.iter Replica.start h.Harness.replicas;
  g.next_due <- start;
  gen_tick g ~n ~mempools:w.n_mempools ~clock:raw.Backend.clock ~timers:client_timers ();
  if a.traced then probe (start +. 5.0) ();
  (* Latency phase. *)
  run_until w_lo;
  let cpu0 = cpu_s () and alloc0 = Replay.allocated_words () and txs0 = h.Harness.origin_commits in
  run_until w_hi;
  let cpu1 = cpu_s () and alloc1 = Replay.allocated_words () and txs1 = h.Harness.origin_commits in
  let heap_peak = heap_peak_mwords () in
  let ids () = Array.init (max 0 (g.hi_id - g.lo_id)) (fun k -> g.lo_id + k) in
  let deadline = w_hi +. a.limit in
  while now () < deadline && not (all_ordered h (ids ())) do
    run_until (Float.min deadline (now () +. 50.0))
  done;
  (* Capacity phase: the same replicas, overloaded. *)
  g.mean_gap_ms <- 1000.0 /. a.cap_load;
  let cap_lo = now () +. a.cap_warmup in
  h.Harness.cap_lo <- cap_lo;
  h.Harness.cap_hi <- cap_lo +. a.cap_window;
  run_until (cap_lo +. a.cap_window);
  g.stopped <- true;
  let run_ns = Tracer.now_ns () - ns0 in
  let wall = Tracer.seconds run_ns in
  let gc1 = gc_counts () in
  let attempted, failed, samples, p50, p99, pmax = latency_figures h (ids ()) ~limit:a.limit in
  let audit = Harness.audit h ~num_dags:w.n_config.Config.num_dags in
  let window_txs = txs1 - txs0 in
  let committee = w.n_config.Config.committee in
  let layers, replay_ok =
    match tracer with
    | None -> ([], true)
    | Some t ->
      let replay = Replay.run ~tracer:t ~committee ~checkpoint:(checkpoint_for_replay ~committee ~h) in
      if a.spans_out <> "" then Tracer.write_spans t a.spans_out;
      ( [
          ("backend.events", float_of_int (Realtime.events_fired exec));
          ("backend.send.count", float_of_int t.Tracer.count.(Tracer.send));
          ("backend.send.self_s", Tracer.seconds t.Tracer.self_ns.(Tracer.send));
          ("backend.residual_s", Tracer.seconds (run_ns - t.Tracer.top_ns));
          ("backend.loop_lag_p50_ms", Harness.quantile (Fbuf.to_array loop_lag) 0.5);
          ("backend.loop_lag_p99_ms", Harness.quantile (Fbuf.to_array loop_lag) 0.99);
          ("backend.cpu_busy_frac", (cpu_s () -. cpu_start) /. wall);
          ("workload.gen_lag_p99_ms", Harness.quantile (Fbuf.to_array g.lag) 0.99);
        ]
        @ common_layers ~tracer:t ~h ~config:w.n_config ~telemetry:w.n_telemetry ~gc0 ~gc1 ~replay
            ~run_ns,
        replay.Replay.replay_ok )
  in
  {
    setup_s;
    wall_s = wall;
    attempted;
    failed;
    samples;
    committed_tps = float_of_int h.Harness.tput_count /. (a.window /. 1000.0);
    p50;
    p99;
    pmax;
    capacity_tps = float_of_int h.Harness.cap_count /. (a.cap_window /. 1000.0);
    cpu_us_per_tx = (cpu1 -. cpu0) *. 1e6 /. float_of_int window_txs;
    alloc_words_per_tx = (alloc1 -. alloc0) /. float_of_int window_txs;
    heap_peak;
    digest = Harness.digest h;
    audit;
    correct = Harness.audit_ok audit && replay_ok && g.lo_id >= 0 && g.hi_id > g.lo_id;
    layers;
  }

let () =
  let a = parse_args () in
  let o =
    match a.kind with
    | "sim" -> sim_episode a
    | "node" -> node_episode a
    | k -> raise (Arg.Bad ("unknown --kind " ^ k))
  in
  let au = o.audit in
  let json =
    O
      [
        ("workload", S a.name);
        ("seed", I a.seed);
        ("traced", B a.traced);
        ("correct", B o.correct);
        ( "audit",
          O
            [
              ("consistent_prefixes", B au.Harness.consistent_prefixes);
              ("duplicate_orders", I au.Harness.duplicate_orders);
              ("recovery_prefix_ok", B au.Harness.recovery_prefix_ok);
              ("caught_up", B au.Harness.caught_up);
              ("lanes_ok", B au.Harness.lanes_ok);
              ("segments", I au.Harness.segments);
            ] );
        ("digest", S o.digest);
        ("setup_s", L (List.map (fun x -> F x) o.setup_s));
        ("wall_s", F o.wall_s);
        ("attempted", I o.attempted);
        ("failed", I o.failed);
        ("samples", I o.samples);
        ("committed_tps", F o.committed_tps);
        ("commit_p50_ms", F o.p50);
        ("commit_p99_ms", F o.p99);
        ("commit_max_ms", F o.pmax);
        ("capacity_tps", F o.capacity_tps);
        ("cpu_us_per_tx", F o.cpu_us_per_tx);
        ("alloc_words_per_tx", F o.alloc_words_per_tx);
        ("heap_peak_mwords", F o.heap_peak);
        ("layers", O (List.map (fun (k, v) -> (k, F v)) o.layers));
      ]
  in
  let b = Buffer.create 4096 in
  emit b json;
  print_endline (Buffer.contents b)
