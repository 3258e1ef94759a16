module Topology = Shoalpp_sim.Topology
module Backend = Shoalpp_backend.Backend
module Backend_sim = Shoalpp_backend.Backend_sim
module Fault_schedule = Shoalpp_sim.Fault_schedule
module Faults = Shoalpp_sim.Faults
module Trace = Shoalpp_sim.Trace
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Mempool = Shoalpp_workload.Mempool
module Client = Shoalpp_workload.Client
module Transaction = Shoalpp_workload.Transaction
module Telemetry = Shoalpp_support.Telemetry

type setup = {
  protocol : Config.t;
  topology : Topology.t;
  net_config : Backend_sim.net_config;
  fault : Fault_schedule.t;
  scenario : Faults.t;
  load_tps : float;
  tx_size : int;
  warmup_ms : float;
  seed : int;
  track_logs : bool;
  trace : Shoalpp_sim.Trace.t option;
}

let default_setup ~protocol =
  {
    protocol;
    topology = Topology.gcp10 ();
    net_config = Backend_sim.default_net_config;
    fault = Fault_schedule.none;
    scenario = Faults.none;
    load_tps = 1000.0;
    tx_size = Transaction.default_size;
    warmup_ms = 1000.0;
    seed = 7;
    track_logs = true;
    trace = None;
  }

type t = {
  setup : setup;
  world : Replica.envelope Backend_sim.t;
  backend : Replica.envelope Backend.t;
  replicas : Replica.t array;
  mempools : Mempool.t array;
  clients : Client.t option array;
  metrics : Metrics.t;
  telemetry : Telemetry.t; (* one registry shared by all replicas *)
  ledger : Ledger.t; (* the origin-commit hook feeding metrics + telemetry *)
  log : Commit_log.t;
  next_id : int ref; (* shared client tx-id counter (survives restarts) *)
  mutable started : bool;
  mutable fault : Fault_schedule.t;
}

let create setup =
  let committee = setup.protocol.Config.committee in
  let n = committee.Shoalpp_dag.Committee.n in
  (* Bind the abstract scenario to this cluster size; from here on a single
     Fault_schedule.t drives both the network and the scheduled replica events. *)
  let fault = Faults.schedule setup.scenario ~n ~base:setup.fault in
  let assignment = Topology.assign_round_robin setup.topology ~n in
  let world =
    Backend_sim.make ~topology:setup.topology ~assignment ~fault ~config:setup.net_config
      ~seed:setup.seed ()
  in
  let backend = Backend_sim.backend world in
  let metrics = Metrics.create ~warmup_ms:setup.warmup_ms () in
  let telemetry = Telemetry.create () in
  let num_dags = setup.protocol.Config.num_dags in
  let ledger = Ledger.create ~telemetry ~metrics ~lanes:num_dags () in
  let log = Commit_log.create ~n ~num_dags ~track_logs:setup.track_logs ~ledger () in
  let mempools = Array.init n (fun _ -> Mempool.create ()) in
  let replicas =
    Array.init n (fun replica_id ->
        Replica.create ~config:setup.protocol ~replica_id ~backend
          ~mempool:mempools.(replica_id)
          ~on_ordered:(Commit_log.on_ordered log ~replica:replica_id)
          (* Recovery completion is asynchronous once peer catch-up sync is
             involved: the ledger and dedup stay muted until every lane is
             live. *)
          ~on_caught_up:(fun () -> Commit_log.caught_up log ~replica:replica_id)
          ?trace:setup.trace ~telemetry
          ~byzantine:(Faults.byzantine_for setup.scenario ~n ~replica:replica_id)
          ~retain_wal:(Faults.has_recovery setup.scenario)
          ())
  in
  {
    setup;
    world;
    backend;
    replicas;
    mempools;
    clients = Array.make n None;
    metrics;
    telemetry;
    ledger;
    log;
    next_id = ref 0;
    started = false;
    fault;
  }

let engine t = t.world.Backend_sim.engine
let net t = t.world.Backend_sim.net
let backend t = t.backend
let events_fired t = Backend_sim.events_fired t.world
let replicas t = t.replicas
let metrics t = t.metrics
let telemetry t = t.telemetry
let ledger t = t.ledger
let trace t = t.setup.trace

let per_replica_tps t = t.setup.load_tps /. float_of_int (Array.length t.replicas)

let start_client t i =
  if per_replica_tps t > 0.0 then
    t.clients.(i) <-
      Some
        (Client.start ~clock:t.backend.Backend.clock ~timers:t.backend.Backend.timers
           ~mempool:t.mempools.(i) ~origin:i
           ~rate_tps:(per_replica_tps t) ~tx_size:t.setup.tx_size ~seed:(t.setup.seed + i)
           ~next_id:t.next_id ())

(* Replica-side crash for a downtime already present in [t.fault] (the
   network side needs no update). *)
let apply_crash t i =
  Replica.crash t.replicas.(i);
  (match t.clients.(i) with Some c -> Client.stop c | None -> ());
  t.clients.(i) <- None

let recover_now t i =
  let now = Backend.now t.backend in
  t.fault <- Fault_schedule.recover t.fault ~replica:i ~at:now;
  Backend_sim.set_fault t.world t.fault;
  (* Recording resumes in the replica's on_caught_up callback —
     synchronously for a local-only recovery, after peer sync completes
     otherwise. *)
  Commit_log.begin_recovery t.log ~replica:i ~base_seq:(Replica.base_seq t.replicas.(i));
  Replica.recover t.replicas.(i);
  start_client t i

let trace_partition t ~time kind =
  match t.setup.trace with
  | Some trace -> Trace.record_event trace ~time ~replica:(-1) kind
  | None -> ()

let schedule_scenario t =
  let n = Array.length t.replicas in
  let scenario = t.setup.scenario in
  List.iter
    (fun (replica, at) ->
      ignore (Backend.schedule_at t.backend ~at (fun () -> apply_crash t replica)))
    (Faults.timed_crashes scenario ~n);
  List.iter
    (fun (replica, _crash_at, recover_at) ->
      ignore (Backend.schedule_at t.backend ~at:recover_at (fun () -> recover_now t replica)))
    (Faults.crash_recoveries scenario ~n);
  List.iter
    (fun (from_time, until_time, minority) ->
      let groups = Printf.sprintf "minority=%d" minority in
      ignore
        (Backend.schedule_at t.backend ~at:from_time (fun () ->
             Telemetry.incr_named t.telemetry "fault.partitions_opened";
             trace_partition t ~time:from_time (Trace.Partition_opened { groups })));
      if until_time < infinity then
        ignore
          (Backend.schedule_at t.backend ~at:until_time (fun () ->
               Telemetry.incr_named t.telemetry "fault.partitions_healed";
               trace_partition t ~time:until_time (Trace.Partition_healed { groups }))))
    (Faults.partition_windows scenario ~n)

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iteri
      (fun i replica ->
        (* Clients at replicas crashed from t=0 are not started (the paper
           measures surviving clients). *)
        if not (Fault_schedule.is_crashed t.fault ~replica:i ~time:0.0) then start_client t i;
        Replica.start replica)
      t.replicas;
    schedule_scenario t
  end

let run t ~duration_ms =
  start t;
  Backend_sim.run ~until:duration_ms t.world

let crash_now t i =
  let now = Backend.now t.backend in
  t.fault <- Fault_schedule.crash t.fault ~replica:i ~at:now;
  Backend_sim.set_fault t.world t.fault;
  apply_crash t i

let audit t = Commit_log.audit t.log ~bases:(Array.map Replica.base_seq t.replicas)

let report t ~duration_ms =
  Report.of_replicas ~name:t.setup.protocol.Config.name ~replicas:t.replicas ~mempools:t.mempools
    ~load_tps:t.setup.load_tps ~duration_ms ~metrics:t.metrics ~net:(Backend.stats t.backend)
    ~telemetry:(Telemetry.snapshot t.telemetry)
    ~trace_dropped:(match t.setup.trace with Some tr -> Trace.dropped tr | None -> 0)

let pp_report = Report.pp
