module Stats = Shoalpp_support.Stats
module Tablefmt = Shoalpp_support.Tablefmt
module Telemetry = Shoalpp_support.Telemetry
module Anchors = Shoalpp_consensus.Anchors

(* ------------------------------------------------------------------ *)
(* Snapshot rendering: the per-stage latency breakdown and commit-rule
   mix of a raw telemetry snapshot, shared by the extended report below
   and the realtime node's shutdown summary. *)

let stage_names =
  [
    ("submit->batch", "stage.submit_to_batch");
    ("batch->proposal", "stage.batch_to_proposal");
    ("proposal->commit", "stage.proposal_to_commit");
    ("commit->order", "stage.commit_to_order");
    ("end-to-end", "latency.e2e");
  ]

let rule_mix_of_snapshot snap =
  Anchors.mix
    ~fast:(Telemetry.snap_counter snap (Anchors.counter_name Anchors.Fast_direct))
    ~direct:(Telemetry.snap_counter snap (Anchors.counter_name Anchors.Certified_direct))
    ~indirect:(Telemetry.snap_counter snap (Anchors.counter_name Anchors.Indirect_rule))
    ~skipped:(Telemetry.snap_counter snap (Anchors.counter_name Anchors.Skipped))

let pp_stages fmt snap =
  Format.fprintf fmt "stage latency (ms, p50/p90/p99 of origin txns):";
  List.iter
    (fun (label, metric) ->
      match Telemetry.snap_histogram snap metric with
      | Some h when h.Telemetry.hs_count > 0 ->
        Format.fprintf fmt "@,  %-16s %7.1f /%7.1f /%7.1f  (mean %.1f, n=%d)" label h.hs_p50
          h.hs_p90 h.hs_p99 h.hs_mean h.hs_count
      | _ ->
        (* Explicit zero row: a stage with no samples (e.g. while every
           origin commit fell into a fault window) still renders. *)
        Format.fprintf fmt "@,  %-16s %7.1f /%7.1f /%7.1f  (mean %.1f, n=%d)" label 0.0 0.0 0.0
          0.0 0)
    stage_names


type t = {
  name : string;
  n : int;
  load_tps : float;
  duration_ms : float;
  submitted : int;
  committed : int;
  committed_tps : float;
  latency_p25 : float;
  latency_p50 : float;
  latency_p75 : float;
  latency_mean : float;
  fast_commits : int;
  direct_commits : int;
  indirect_commits : int;
  skipped_anchors : int;
  messages_sent : int;
  messages_dropped : int;
  bytes_sent : float;
  telemetry : Shoalpp_support.Telemetry.snapshot;
  trace_dropped : int;
}

let make ~name ~n ~load_tps ~duration_ms ~submitted ~metrics ?(fast_commits = 0)
    ?(direct_commits = 0) ?(indirect_commits = 0) ?(skipped_anchors = 0) ~messages_sent
    ~messages_dropped ~bytes_sent ?(telemetry = Shoalpp_support.Telemetry.empty_snapshot)
    ?(trace_dropped = 0) () =
  let lat = Metrics.latency metrics in
  let p25, p50, p75 = Stats.Summary.quartiles lat in
  {
    name;
    n;
    load_tps;
    duration_ms;
    submitted;
    committed = Metrics.committed metrics;
    committed_tps = Metrics.committed_tps metrics ~duration_ms;
    latency_p25 = p25;
    latency_p50 = p50;
    latency_p75 = p75;
    latency_mean = Stats.Summary.mean lat;
    fast_commits;
    direct_commits;
    indirect_commits;
    skipped_anchors;
    messages_sent;
    messages_dropped;
    bytes_sent;
    telemetry;
    trace_dropped;
  }

let of_replicas ~name ~replicas ~mempools ~load_tps ~duration_ms ~metrics
    ~(net : Shoalpp_backend.Backend.Transport.stats) ~telemetry ~trace_dropped =
  let module Driver = Shoalpp_consensus.Driver in
  let module Transport = Shoalpp_backend.Backend.Transport in
  let sum f =
    Array.fold_left
      (fun acc r ->
        List.fold_left (fun acc s -> acc + f s) acc (Shoalpp_core.Replica.driver_stats r))
      0 replicas
  in
  make ~name ~n:(Array.length replicas) ~load_tps ~duration_ms
    ~submitted:
      (Array.fold_left (fun acc m -> acc + Shoalpp_workload.Mempool.submitted m) 0 mempools)
    ~metrics
    ~fast_commits:(sum (fun s -> s.Driver.fast_commits))
    ~direct_commits:(sum (fun s -> s.Driver.direct_commits))
    ~indirect_commits:(sum (fun s -> s.Driver.indirect_commits))
    ~skipped_anchors:(sum (fun s -> s.Driver.skipped_anchors))
    ~messages_sent:net.Transport.sent
    ~messages_dropped:(net.Transport.dropped + net.Transport.partitioned)
    ~bytes_sent:net.Transport.bytes ~telemetry ~trace_dropped ()

let rule_mix r =
  Anchors.mix ~fast:r.fast_commits ~direct:r.direct_commits ~indirect:r.indirect_commits
    ~skipped:r.skipped_anchors

let pp_rule_mix fmt r =
  Format.fprintf fmt "commit rules:";
  List.iter
    (fun (rule, frac) -> Format.fprintf fmt " %s=%.1f%%" (Anchors.rule_tag rule) (100.0 *. frac))
    (rule_mix r)

let pp fmt r =
  Format.fprintf fmt
    "%s: n=%d load=%.0ftps committed=%d (%.0f tps) latency p50=%.0fms [p25=%.0f p75=%.0f] \
     commits fast/direct/indirect=%d/%d/%d skipped=%d"
    r.name r.n r.load_tps r.committed r.committed_tps r.latency_p50 r.latency_p25 r.latency_p75
    r.fast_commits r.direct_commits r.indirect_commits r.skipped_anchors

(* The full observability view: headline numbers, commit-rule mix and (when
   the run carried a telemetry registry) the per-stage latency breakdown and
   per-DAG attribution. *)
let pp_extended fmt r =
  Format.fprintf fmt "@[<v>%a@,%a" pp r pp_rule_mix r;
  if r.telemetry <> Shoalpp_support.Telemetry.empty_snapshot then
    Format.fprintf fmt "@,%a" pp_stages r.telemetry;
  let dag_hists =
    List.filter
      (fun (h : Shoalpp_support.Telemetry.histogram_stats) ->
        let name = h.Shoalpp_support.Telemetry.hs_name in
        (* No [hs_count > 0] filter: a lane that committed nothing during a
           fault window still gets an explicit zero row. *)
        String.length name > 3 && String.sub name 0 3 = "dag"
        &&
        match String.index_opt name '.' with
        | Some i -> String.sub name i (String.length name - i) = ".latency"
        | None -> false)
      r.telemetry.Shoalpp_support.Telemetry.snap_histograms
  in
  List.iter
    (fun (h : Shoalpp_support.Telemetry.histogram_stats) ->
      let prefix =
        match String.index_opt h.hs_name '.' with
        | Some i -> String.sub h.hs_name 0 i
        | None -> h.hs_name
      in
      let txns = Shoalpp_support.Telemetry.snap_counter r.telemetry (prefix ^ ".txns") in
      let effective_s = Float.max 0.001 ((r.duration_ms -. 0.0) /. 1000.0) in
      let safe v = if h.hs_count = 0 then 0.0 else v in
      Format.fprintf fmt "@,%-6s %6.0f tps  p50=%.0fms p99=%.0fms (n=%d)" prefix
        (float_of_int txns /. effective_s)
        (safe h.hs_p50) (safe h.hs_p99) h.hs_count)
    dag_hists;
  if r.trace_dropped > 0 then
    Format.fprintf fmt
      "@,WARNING: trace ring dropped %d events (oldest overwritten) — raise the trace capacity \
       to keep the full run"
      r.trace_dropped;
  Format.fprintf fmt "@]"

let table_header =
  [ "system"; "load(tps)"; "committed(tps)"; "p25(ms)"; "p50(ms)"; "p75(ms)"; "mean(ms)" ]

let table_row r =
  [
    r.name;
    Printf.sprintf "%.0f" r.load_tps;
    Printf.sprintf "%.0f" r.committed_tps;
    Tablefmt.float_cell ~decimals:0 r.latency_p25;
    Tablefmt.float_cell ~decimals:0 r.latency_p50;
    Tablefmt.float_cell ~decimals:0 r.latency_p75;
    Tablefmt.float_cell ~decimals:0 r.latency_mean;
  ]
