module Backend = Shoalpp_backend.Backend
module Realtime = Shoalpp_backend.Backend_realtime
module Trace = Shoalpp_sim.Trace
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Driver = Shoalpp_consensus.Driver
module Types = Shoalpp_dag.Types
module Committee = Shoalpp_dag.Committee
module Mempool = Shoalpp_workload.Mempool
module Client = Shoalpp_workload.Client
module Transaction = Shoalpp_workload.Transaction
module Batch = Shoalpp_workload.Batch
module Telemetry = Shoalpp_support.Telemetry
module Obs = Shoalpp_sim.Obs
module Validation = Shoalpp_dag.Validation
module Verify_pool = Shoalpp_backend.Verify_pool
module Crypto_cost = Shoalpp_backend.Crypto_cost
module Stream = Shoalpp_backend.Stream_transport

type transport = Inproc | Uds of string | Tcp of int

type setup = {
  protocol : Config.t;
  load_tps : float;
  tx_size : int;
  warmup_ms : float;
  seed : int;
  transport : transport;
  link_delay_ms : float;
  coalesce_us : float;
  delays_ms : float array array option;
  trace : Trace.t option;
  domains : int;
  verify_delay_us : float;
  retain_wal : bool;  (** keep synced WAL payloads so restart can replay *)
}

let default_setup ~protocol =
  {
    protocol;
    load_tps = 200.0;
    tx_size = Transaction.default_size;
    warmup_ms = 0.0;
    seed = 1;
    transport = Inproc;
    link_delay_ms = 0.0;
    coalesce_us = 0.0;
    delays_ms = None;
    trace = None;
    domains = 1;
    verify_delay_us = 0.0;
    retain_wal = false;
  }

(* Anchor identity of one ordered segment — what the consistency audit
   compares across replicas (node sets differ only transiently). *)
type seg_id = { sdag : int; sround : int; sauthor : int }

(* Multicore execution state (--domains > 1): one executor domain per DAG
   lane (shared clock origin with the main loop), per-lane-domain
   telemetry registries and trace rings (each touched by exactly one
   domain, merged at report time), and the verify pool whose workers do
   the signature checks the instances then skip. [mc_rejects] slots are
   per pool lane; a slot is only written by that lane's (serialized)
   completion deliveries. *)
type multicore = {
  mc_lane_execs : Realtime.t array;
  mc_lane_telemetry : Telemetry.t array;
  mc_lane_traces : Trace.t array;
  mc_pool : Verify_pool.t;
  mc_rejects : int array;
}

type t = {
  setup : setup;
  exec : Realtime.t;
  backend : Replica.envelope Backend.t;
  stream : Replica.envelope Stream.t option; (* the socket transport, if any *)
  mc : multicore option;
  mutable replicas : Replica.t array;
  mempools : Mempool.t array;
  clients : Client.t option array;
  metrics : Metrics.t;
  telemetry : Telemetry.t;
  ledger : Ledger.t;
  logs : seg_id list ref array;
  ordered_seen : (int, unit) Hashtbl.t array;
  recovering : bool array; (* replay/catch-up in progress: metrics/dedup muted *)
  next_id : int ref; (* shared client tx-id counter (survives restarts) *)
  mutable duplicate_orders : int;
  mutable started : bool;
}

(* One-byte DAG tag, then the signed protocol message — the same bytes
   whether the peers share a process (loopback skips this) or not. *)
let encode_envelope (e : Replica.envelope) =
  let body = Types.encode_message e.Replica.payload in
  let b = Buffer.create (String.length body + 1) in
  Buffer.add_char b (Char.chr (e.Replica.dag_id land 0xff));
  Buffer.add_string b body;
  Buffer.contents b

let decode_envelope ~cluster_seed s =
  if String.length s < 1 then None
  else
    match Types.decode_message ~cluster_seed (String.sub s 1 (String.length s - 1)) with
    | Ok payload -> Some { Replica.dag_id = Char.code s.[0]; payload }
    | Error _ -> None

let create setup =
  let committee = setup.protocol.Config.committee in
  let n = committee.Committee.n in
  let k = max 1 setup.protocol.Config.num_dags in
  let exec = Realtime.create () in
  let mc =
    if setup.domains <= 1 then None
    else
      Some
        {
          (* A short tick: lane loops are woken by cross-domain posts for
             messages, so the tick only bounds how stale a lane's own
             timer horizon can get. *)
          mc_lane_execs =
            Array.init k (fun _ -> Realtime.create ~max_tick_ms:5.0 ~origin_of:exec ());
          mc_lane_telemetry = Array.init k (fun _ -> Telemetry.create ());
          mc_lane_traces =
            Array.init k (fun _ -> Trace.create ~enabled:(Option.is_some setup.trace) ());
          mc_pool = Verify_pool.create ~workers:setup.domains ~lanes:(n * k);
          mc_rejects = Array.make (n * k) 0;
        }
  in
  (* One delivery rule at every domain count: every transport handler runs
     on the main executor's loop. Transports own single-domain state (timer
     heap entries, socket pollers, the delay shim's timers), so with lane
     domains each send is posted to the main loop first. *)
  let post_to_main (raw : Replica.envelope Backend.Transport.t) =
    {
      Backend.Transport.n = raw.Backend.Transport.n;
      send =
        (fun ~src ~dst ~size msg ->
          Realtime.post exec (fun () -> raw.Backend.Transport.send ~src ~dst ~size msg));
      broadcast =
        (fun ~src ~size ~include_self msg ->
          Realtime.post exec (fun () ->
              raw.Backend.Transport.broadcast ~src ~size ~include_self msg));
      set_handler = raw.Backend.Transport.set_handler;
      stats = raw.Backend.Transport.stats;
    }
  in
  let open_stream addrs =
    Stream.create exec ~addrs ~coalesce_us:setup.coalesce_us ~encode:encode_envelope
      ~decode:(decode_envelope ~cluster_seed:committee.Committee.cluster_seed)
      ()
  in
  let stream =
    match setup.transport with
    | Inproc -> None
    | Uds dir -> Some (open_stream (Stream.unix_addrs ~dir ~n))
    | Tcp base_port -> Some (open_stream (Stream.tcp_addrs ~base_port ~n))
  in
  let raw =
    match stream with
    | Some s -> Stream.transport s
    | None -> Realtime.loopback exec ~n ~delay_ms:setup.link_delay_ms ()
  in
  (* Geography shim: per-(src,dst) one-way delays applied sender-side over
     whatever transport is underneath. The timers live on the main loop, so
     under [post_to_main] the delayed send itself already runs there. *)
  let shimmed =
    match setup.delays_ms with
    | None -> raw
    | Some d -> Realtime.delayed exec ~delay_ms:(fun ~src ~dst -> d.(src).(dst)) raw
  in
  let transport = if Option.is_none mc then shimmed else post_to_main shimmed in
  (* Modeled verification service time ({!Crypto_cost}), charged per
     SIGNATURE rather than per message: one for the header / vote /
     certificate check, plus one per transaction carried in a proposal's
     batch — client-signature verification is the term that scales with
     throughput and cannot be amortized by batching. The single-domain
     node pays it inline at each delivery — the same place its inline
     signature checks run — while the multicore node pays it inside the
     verify-pool job. Identical per-message charge at every domain count,
     so [--domains] comparisons vary only where the cost is paid. *)
  let verify_cost_us =
    if setup.protocol.Config.verify_signatures then setup.verify_delay_us else 0.0
  in
  let modeled_cost_us (payload : Types.message) =
    match payload with
    | Types.Proposal node ->
      verify_cost_us
      *. float_of_int (1 + List.length node.Types.batch.Shoalpp_workload.Batch.txns)
    | Types.Fetch_response cn ->
      verify_cost_us
      *. float_of_int
           (1 + List.length cn.Types.cn_node.Types.batch.Shoalpp_workload.Batch.txns)
    | _ -> verify_cost_us
  in
  let transport =
    if verify_cost_us > 0.0 && Option.is_none mc then
      {
        transport with
        Backend.Transport.set_handler =
          (fun r h ->
            transport.Backend.Transport.set_handler r (fun ~src env ->
                Crypto_cost.pay ~us:(modeled_cost_us env.Replica.payload);
                h ~src env));
      }
    else transport
  in
  let backend = Realtime.backend exec transport in
  let mempools = Array.init n (fun _ -> Mempool.create ()) in
  let metrics = Metrics.create ~warmup_ms:setup.warmup_ms () in
  let telemetry = Telemetry.create () in
  let ledger = Ledger.create ~telemetry () in
  let logs = Array.init n (fun _ -> ref []) in
  let ordered_seen = Array.init n (fun _ -> Hashtbl.create 256) in
  let recovering = Array.make n false in
  let t =
    {
      setup;
      exec;
      backend;
      stream;
      mc;
      replicas = [||];
      mempools;
      clients = Array.make n None;
      metrics;
      telemetry;
      ledger;
      logs;
      ordered_seen;
      recovering;
      next_id = ref 0;
      duplicate_orders = 0;
      started = false;
    }
  in
  (* The on_ordered closures capture [t] and mutate its counters, so the
     replicas are installed by mutation — a functional record copy here
     would leave the closures updating a dead record. *)
  t.replicas <-
    Array.init n (fun replica_id ->
        let on_ordered (o : Replica.ordered) =
          let seg = o.Replica.segment in
          let anchor = seg.Driver.anchor in
          logs.(replica_id) :=
            {
              sdag = seg.Driver.dag_id;
              sround = anchor.Types.ref_round;
              sauthor = anchor.Types.ref_author;
            }
            :: !(logs.(replica_id));
          List.iter
            (fun (cn : Types.certified_node) ->
              let node = cn.Types.cn_node in
              let batch = node.Types.batch in
              List.iter
                (fun (tx : Transaction.t) ->
                  (if Hashtbl.mem ordered_seen.(replica_id) tx.Transaction.id then begin
                     (* Replay/catch-up re-orders history by design; only a
                        repeat outside recovery is a safety violation. *)
                     if not recovering.(replica_id) then
                       t.duplicate_orders <- t.duplicate_orders + 1
                   end
                   else Hashtbl.replace ordered_seen.(replica_id) tx.Transaction.id ());
                  if not recovering.(replica_id) then
                    Metrics.observe_commit metrics
                      ~origin_ordered:(tx.Transaction.origin = replica_id)
                      ~tx ~now:o.Replica.ordered_at;
                  if tx.Transaction.origin = replica_id && not recovering.(replica_id) then
                    Ledger.record ledger
                      {
                        Ledger.le_tx = tx.Transaction.id;
                        le_origin = replica_id;
                        le_dag = seg.Driver.dag_id;
                        le_rule = Ledger.rule_of_kind seg.Driver.kind;
                        le_seq = o.Replica.global_seq;
                        le_submitted = tx.Transaction.submitted_at;
                        le_batched = batch.Batch.created_at;
                        le_included = node.Types.created_at;
                        le_committed = seg.Driver.committed_at;
                        le_ordered = o.Replica.ordered_at;
                      })
                batch.Batch.txns)
            seg.Driver.nodes
        in
        let config, lane_env =
          match mc with
          | None -> (setup.protocol, None)
          | Some m ->
            (* The pool pre-verifies every inbound message's cryptography,
               so the instances run with signature checks off: structural
               validation still happens inline, and the verdicts equal
               what inline verification would produce. *)
            ( Config.without_signature_checks setup.protocol,
              Some
                {
                  Replica.le_backend =
                    (fun dag_id ->
                      {
                        Backend.clock = Realtime.clock m.mc_lane_execs.(dag_id);
                        timers = Realtime.timers m.mc_lane_execs.(dag_id);
                        transport;
                        control = None;
                      });
                  le_obs =
                    (fun dag_id ->
                      Obs.make
                        ?trace:
                          (if Option.is_some setup.trace then
                             Some m.mc_lane_traces.(dag_id)
                           else None)
                        ~telemetry:m.mc_lane_telemetry.(dag_id) ~replica:replica_id
                        ~instance:0 ())
                  ;
                  le_post_main = (fun f -> Realtime.post exec f);
                } )
        in
        Replica.create ~config ~replica_id ~backend ~mempool:mempools.(replica_id)
          ~on_ordered
          ~on_caught_up:(fun () -> recovering.(replica_id) <- false)
          ?trace:setup.trace ~telemetry ~retain_wal:setup.retain_wal ?lane_env ());
  (* Multicore inbound routing: the transport delivers on the main domain;
     each message is verified on the pool (one pool lane per
     (replica, dag) so per-stream FIFO order survives the steal), and the
     survivors are posted to their DAG lane's executor. *)
  (match mc with
  | None -> ()
  | Some m ->
    let verify = setup.protocol.Config.verify_signatures in
    Array.iteri
      (fun rid replica ->
        Backend.set_handler backend rid (fun ~src env ->
            let dag_id = env.Replica.dag_id in
            (* Control-plane envelopes (checkpoint votes) bypass the verify
               pool: this handler already runs on the merge domain, which
               owns the checkpoint manager, and their signature is checked
               inside [deliver]. *)
            if dag_id = Replica.control_dag_id then
              Replica.deliver replica ~dag_id ~src env.Replica.payload
            else if dag_id >= 0 && dag_id < k then begin
              (* Handler and {!Verify_pool.shutdown} both run on the main
                 domain, so the [closed] check cannot race the shutdown. A
                 message delivered in the quiesce window after it (a lane's
                 last sends, drained by {!run}'s final loop slice) is
                 dropped and counted; a post-shutdown submit would raise. *)
              if Verify_pool.closed m.mc_pool then
                Telemetry.incr_named telemetry "node.late_drops"
              else begin
                let payload = env.Replica.payload in
                let pool_lane = (rid * k) + dag_id in
                Verify_pool.submit m.mc_pool ~lane:pool_lane
                  ~work:(fun () ->
                    (not verify)
                    ||
                    (Crypto_cost.pay ~us:(modeled_cost_us payload);
                     Validation.signatures_ok ~committee payload))
                  ~k:(fun ok ->
                    if ok then
                      Realtime.post m.mc_lane_execs.(dag_id) (fun () ->
                          Replica.deliver replica ~dag_id ~src payload)
                    else m.mc_rejects.(pool_lane) <- m.mc_rejects.(pool_lane) + 1)
              end
            end))
      t.replicas);
  t

let per_replica_tps t = t.setup.load_tps /. float_of_int (Array.length t.replicas)

let start_client t i =
  if per_replica_tps t > 0.0 then begin
    let n = Array.length t.replicas in
    (* Multicore: client [i]'s Poisson timers fire on lane executor
       [i mod k] instead of the main loop — tens of thousands of
       timer events per second move off the merge domain. Disjoint
       stride-[n] id spaces replace the shared counter, which would
       otherwise race across domains. *)
    let clock, timers, next_id, stride =
      match t.mc with
      | None -> (t.backend.Backend.clock, t.backend.Backend.timers, t.next_id, 1)
      | Some m ->
        let e = m.mc_lane_execs.(i mod Array.length m.mc_lane_execs) in
        (Realtime.clock e, Realtime.timers e, ref i, n)
    in
    t.clients.(i) <-
      Some
        (Client.start ~clock ~timers ~mempool:t.mempools.(i) ~origin:i
           ~rate_tps:(per_replica_tps t) ~tx_size:t.setup.tx_size
           ~seed:(t.setup.seed + i) ~next_id ~stride ())
  end

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iter Replica.start t.replicas;
    Array.iteri (fun i _ -> start_client t i) t.mempools
  end

let run t ~duration_ms =
  start t;
  (match t.mc with
  | None -> ()
  | Some m -> Array.iter Realtime.run_in_domain m.mc_lane_execs);
  Realtime.run_for t.exec ~duration_ms;
  (* Clean shutdown: no new transactions, and any timer already armed fires
     into a stopped client / a loop that is no longer running. *)
  Array.iter (function Some c -> Client.stop c | None -> ()) t.clients;
  match t.mc with
  | None -> ()
  | Some m ->
    (* Quiesce order matters: drain the pool first so its completions land
       on still-running lane executors, then stop and join the lanes, then
       drive the main loop briefly so merge closures the lanes posted in
       their final moments still reach the global log (their last sends
       reach the handler too, and count as [node.late_drops]). After this,
       no other domain is running. *)
    Verify_pool.shutdown m.mc_pool;
    Array.iter Realtime.stop_and_join m.mc_lane_execs;
    Realtime.run_for t.exec ~duration_ms:50.0

let stop t = Realtime.stop t.exec

(* Realtime crash/restart (single-domain only: lane executors cannot be
   torn down mid-run). Restart mirrors the sim cluster's recovery path:
   snapshot bookkeeping resets, WAL replay + checkpoint restore inside
   {!Replica.recover}, peer catch-up sync when checkpointing is on, and
   metrics/dedup muted until [on_caught_up] clears [recovering]. *)
let crash_replica t i =
  if Option.is_some t.mc then invalid_arg "Node.crash_replica: single-domain only";
  Replica.crash t.replicas.(i);
  (match t.clients.(i) with Some c -> Client.stop c | None -> ());
  t.clients.(i) <- None

let recover_replica ?wipe t i =
  if Option.is_some t.mc then invalid_arg "Node.recover_replica: single-domain only";
  t.logs.(i) := [];
  Hashtbl.reset t.ordered_seen.(i);
  t.recovering.(i) <- true;
  Replica.recover ?wipe t.replicas.(i);
  start_client t i

let catching_up t i = t.recovering.(i) || Replica.catching_up t.replicas.(i)
let executor t = t.exec
let stream t = t.stream
let backend t = t.backend
let replicas t = t.replicas
let metrics t = t.metrics
let telemetry t = t.telemetry
let ledger t = t.ledger
let trace t = t.setup.trace
let now_ms t = Realtime.now_ms t.exec
let domains t = t.setup.domains
let verify_pool t = match t.mc with None -> None | Some m -> Some m.mc_pool

(* Lane-domain sinks are merged only after the lanes have been joined
   (post-run): mid-run the main registry alone feeds the admin endpoint,
   so a scrape never races a foreign domain's histogram. *)
let telemetry_snapshot t =
  match t.mc with
  | None -> Telemetry.snapshot t.telemetry
  | Some m ->
    let combined = Telemetry.create () in
    Telemetry.merge ~src:t.telemetry ~dst:combined;
    Array.iter (fun src -> Telemetry.merge ~src ~dst:combined) m.mc_lane_telemetry;
    Telemetry.snapshot combined

let trace_events t =
  let main = match t.setup.trace with Some tr -> Trace.events tr | None -> [] in
  match t.mc with
  | None -> main
  | Some m ->
    let lanes =
      Array.fold_left (fun acc tr -> acc @ Trace.events tr) [] m.mc_lane_traces
    in
    List.stable_sort
      (fun (a : Trace.event) b -> Float.compare a.Trace.time b.Trace.time)
      (main @ lanes)

let trace_dropped t =
  (match t.setup.trace with Some tr -> Trace.dropped tr | None -> 0)
  +
  match t.mc with
  | None -> 0
  | Some m -> Array.fold_left (fun acc tr -> acc + Trace.dropped tr) 0 m.mc_lane_traces

(* Repeating in-run snapshot refresh: keeps the admin endpoint's gauges
   live while the loop runs instead of only materializing at shutdown.
   Realtime-only by construction (nothing in the sim harness calls it), so
   the extra timer events never touch deterministic runs. *)
let arm_live_gauges ?(interval_ms = 250.0) t =
  let g_uptime = Telemetry.gauge t.telemetry "live.uptime_ms" in
  let g_committed = Telemetry.gauge t.telemetry "live.committed" in
  let g_tps = Telemetry.gauge t.telemetry "live.commit_tps" in
  let g_dropped = Telemetry.gauge t.telemetry "live.trace_dropped" in
  let g_heap = Telemetry.gauge t.telemetry "live.heap_words" in
  let last = ref (Backend.now t.backend, Metrics.committed t.metrics) in
  let rec tick () =
    let now = Backend.now t.backend in
    let committed = Metrics.committed t.metrics in
    let last_now, last_committed = !last in
    let dt_s = Float.max 0.001 ((now -. last_now) /. 1000.0) in
    Telemetry.set g_uptime now;
    Telemetry.set g_committed (float_of_int committed);
    Telemetry.set g_tps (float_of_int (committed - last_committed) /. dt_s);
    (match t.setup.trace with
    | Some tr -> Telemetry.set g_dropped (float_of_int (Trace.dropped tr))
    | None -> ());
    (* Live words, not peak: the memory-ceiling smoke scrapes this to prove
       checkpoint-anchored pruning holds long runs bounded. *)
    Telemetry.set g_heap (float_of_int (Gc.quick_stat ()).Gc.heap_words);
    last := (now, committed);
    ignore (Backend.schedule t.backend ~after:interval_ms tick)
  in
  ignore (Backend.schedule t.backend ~after:interval_ms tick)

type audit = {
  consistent_prefixes : bool;
  prefix_length : int;  (** length of the shortest replica log *)
  total_segments : int;
  duplicate_orders : int;
  anchors_per_lane : int array;
      (** segments replica 0 committed per DAG lane — every lane of a
          healthy run shows at least one *)
}

let ordered_ids t ~replica =
  List.rev_map (fun s -> (s.sdag, s.sround, s.sauthor)) !(t.logs.(replica))

let audit t =
  let logs = Array.map (fun l -> Array.of_list (List.rev !l)) t.logs in
  (* A checkpoint-recovered replica's log starts at its base sequence, not
     0: compare pairwise agreement in global-sequence coordinates. *)
  let bases = Array.mapi (fun i _ -> Replica.base_seq t.replicas.(i)) logs in
  let min_len =
    Array.fold_left min max_int
      (Array.mapi (fun i l -> bases.(i) + Array.length l) logs)
  in
  let min_len = if min_len = max_int then 0 else min_len in
  let consistent = ref true in
  let n = Array.length logs in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let lo = max bases.(a) bases.(b) in
      let hi =
        min (bases.(a) + Array.length logs.(a)) (bases.(b) + Array.length logs.(b))
      in
      for seq = lo to hi - 1 do
        if logs.(a).(seq - bases.(a)) <> logs.(b).(seq - bases.(b)) then consistent := false
      done
    done
  done;
  let lanes = Array.make (max 1 t.setup.protocol.Config.num_dags) 0 in
  Array.iter
    (fun s -> if s.sdag < Array.length lanes then lanes.(s.sdag) <- lanes.(s.sdag) + 1)
    logs.(0);
  {
    consistent_prefixes = !consistent;
    prefix_length = min_len;
    total_segments = Array.fold_left (fun acc l -> acc + Array.length l) 0 logs;
    duplicate_orders = t.duplicate_orders;
    anchors_per_lane = lanes;
  }

let report t ~duration_ms =
  let net_stats = Backend.stats t.backend in
  let sum f =
    Array.fold_left
      (fun acc r -> List.fold_left (fun acc s -> acc + f s) acc (Replica.driver_stats r))
      0 t.replicas
  in
  let submitted = Array.fold_left (fun acc m -> acc + Mempool.submitted m) 0 t.mempools in
  Report.make
    ~name:(t.setup.protocol.Config.name ^ "/realtime")
    ~n:(Array.length t.replicas) ~load_tps:t.setup.load_tps ~duration_ms ~submitted
    ~metrics:t.metrics
    ~fast_commits:(sum (fun s -> s.Driver.fast_commits))
    ~direct_commits:(sum (fun s -> s.Driver.direct_commits))
    ~indirect_commits:(sum (fun s -> s.Driver.indirect_commits))
    ~skipped_anchors:(sum (fun s -> s.Driver.skipped_anchors))
    ~messages_sent:net_stats.Backend.Transport.sent
    ~messages_dropped:
      (net_stats.Backend.Transport.dropped + net_stats.Backend.Transport.partitioned)
    ~bytes_sent:net_stats.Backend.Transport.bytes
    ~telemetry:(telemetry_snapshot t) ~trace_dropped:(trace_dropped t) ()
