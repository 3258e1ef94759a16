(* Per-commit latency ledger: the single origin-commit hook of every
   system. Each harness calls [record] exactly once per transaction, at its
   origin replica's commit, outside WAL replay; everything downstream is
   derived here:

   - the run's {!Metrics} (end-to-end latency and throughput, §8);
   - the run-wide [stage.*] / [latency.e2e] histograms and the per-lane
     [dag<k>.txns] / [dag<k>.latency] attribution;
   - the same stage deltas keyed by (DAG lane x commit rule), so a
     fast-path commit's pipeline can be compared against an indirect
     one's, which is exactly the attribution Shoal++'s latency claims are
     made of;
   - a bounded ring of raw entries for the admin endpoint's JSON tail.

   Determinism: recording only mutates this ring, the metrics and (when a
   registry is attached) telemetry instruments. It emits no trace events,
   schedules no timers and performs no I/O, so attaching a ledger to the
   simulated cluster leaves golden trace digests and event counts
   byte-identical. *)

module Telemetry = Shoalpp_support.Telemetry
module Tablefmt = Shoalpp_support.Tablefmt
module Anchors = Shoalpp_consensus.Anchors
module Driver = Shoalpp_consensus.Driver

type entry = {
  le_tx : int;
  le_origin : int;
  le_dag : int;
  le_rule : Anchors.rule;
  le_seq : int;
  le_submitted : float;
  le_batched : float;
  le_included : float;
  le_committed : float;
  le_ordered : float;
}

(* Pipeline stages in order: the ledger's key, the run-wide histogram the
   stage also feeds, and its delta (ms) between two of the five
   timestamps. [e2e] spans the whole pipeline and is listed last. *)
let stages =
  [|
    ("submit_to_batch", "stage.submit_to_batch", fun e -> e.le_batched -. e.le_submitted);
    ("batch_to_inclusion", "stage.batch_to_proposal", fun e -> e.le_included -. e.le_batched);
    ("inclusion_to_commit", "stage.proposal_to_commit", fun e -> e.le_committed -. e.le_included);
    ("commit_to_order", "stage.commit_to_order", fun e -> e.le_ordered -. e.le_committed);
    ("e2e", "latency.e2e", fun e -> e.le_ordered -. e.le_submitted);
  |]

let stage_names = Array.to_list (Array.map (fun (key, _, _) -> key) stages)

let rule_of_kind = function
  | Driver.Fast -> Anchors.Fast_direct
  | Driver.Direct -> Anchors.Certified_direct
  | Driver.Indirect -> Anchors.Indirect_rule

let rule_index = function
  | Anchors.Fast_direct -> 0
  | Anchors.Certified_direct -> 1
  | Anchors.Indirect_rule -> 2
  | Anchors.Skipped -> 3

let rule_of_tag tag =
  List.find_opt (fun r -> String.equal (Anchors.rule_tag r) tag) Anchors.all_rules

let metric_name ~dag ~rule stage =
  Printf.sprintf "ledger.dag%d.%s.%s" dag (Anchors.rule_tag rule) stage

type t = {
  telemetry : Telemetry.t option;
  metrics : Metrics.t option;
  capacity : int;
  ring : entry option array;
  mutable next : int;  (* ring slot the next entry lands in *)
  mutable total : int;  (* entries ever recorded *)
  (* Histogram handles cached per (dag, rule): recording stays one array
     index + five observes on the hot path after the first commit of each
     (lane, rule) pair. *)
  handles : (int, Telemetry.Histogram.t array) Hashtbl.t;
  totals : Telemetry.Histogram.t array; (* run-wide, in [stages] order *)
  lanes : (int, Telemetry.counter * Telemetry.Histogram.t) Hashtbl.t;
}

let default_capacity = 4096

let lane_for t tel dag =
  match Hashtbl.find_opt t.lanes dag with
  | Some h -> h
  | None ->
    let h =
      ( Telemetry.counter tel (Printf.sprintf "dag%d.txns" dag),
        Telemetry.histogram tel (Printf.sprintf "dag%d.latency" dag) )
    in
    Hashtbl.replace t.lanes dag h;
    h

let create ?telemetry ?metrics ?(lanes = 0) ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  let t =
    {
      telemetry;
      metrics;
      capacity;
      ring = Array.make capacity None;
      next = 0;
      total = 0;
      handles = Hashtbl.create 16;
      totals =
        (match telemetry with
        | Some tel -> Array.map (fun (_, name, _) -> Telemetry.histogram tel name) stages
        | None -> [||]);
      lanes = Hashtbl.create 8;
    }
  in
  (* Registered up front so a lane with no origin commit still reports an
     explicit zero row. *)
  Option.iter (fun tel -> for dag = 0 to lanes - 1 do ignore (lane_for t tel dag) done) telemetry;
  t

let handles_for t tel ~dag ~rule =
  let key = (dag * 4) + rule_index rule in
  match Hashtbl.find_opt t.handles key with
  | Some hs -> hs
  | None ->
    let hs =
      Array.map (fun (stage, _, _) -> Telemetry.histogram tel (metric_name ~dag ~rule stage)) stages
    in
    Hashtbl.replace t.handles key hs;
    hs

let record t e =
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1;
  Option.iter
    (fun m -> Metrics.observe_commit m ~submitted:e.le_submitted ~now:e.le_ordered)
    t.metrics;
  match t.telemetry with
  | None -> ()
  | Some tel ->
    let hs = handles_for t tel ~dag:e.le_dag ~rule:e.le_rule in
    Array.iteri
      (fun i (_, _, delta) ->
        let v = delta e in
        Telemetry.observe hs.(i) v;
        Telemetry.observe t.totals.(i) v)
      stages;
    let txns, latency = lane_for t tel e.le_dag in
    Telemetry.incr txns;
    Telemetry.observe latency (e.le_ordered -. e.le_submitted)

let recorded t = t.total
let capacity t = t.capacity
let dropped t = max 0 (t.total - t.capacity)

(* Retained entries in commit order (oldest first); [limit] keeps the
   newest that many. *)
let tail ?limit t =
  let stored = min t.total t.capacity in
  let keep = match limit with Some l -> min (max 0 l) stored | None -> stored in
  let out = ref [] in
  for i = 0 to keep - 1 do
    let idx = (t.next - 1 - i + (2 * t.capacity)) mod t.capacity in
    match t.ring.(idx) with Some e -> out := e :: !out | None -> ()
  done;
  !out

(* ------------------------------------------------------------------ *)
(* JSON tail for the admin endpoint.                                   *)

let json_of_entry e =
  Export.Json.Obj
    [
      ("tx", Export.Json.Int e.le_tx);
      ("origin", Export.Json.Int e.le_origin);
      ("dag", Export.Json.Int e.le_dag);
      ("rule", Export.Json.Str (Anchors.rule_tag e.le_rule));
      ("seq", Export.Json.Int e.le_seq);
      ("submitted_ms", Export.Json.Float e.le_submitted);
      ("batched_ms", Export.Json.Float e.le_batched);
      ("included_ms", Export.Json.Float e.le_included);
      ("committed_ms", Export.Json.Float e.le_committed);
      ("ordered_ms", Export.Json.Float e.le_ordered);
    ]

let json_tail ?limit t =
  Export.Json.to_string
    (Export.Json.Obj
       [
         ("recorded", Export.Json.Int t.total);
         ("dropped", Export.Json.Int (dropped t));
         ("entries", Export.Json.List (List.map json_of_entry (tail ?limit t)));
       ])

(* ------------------------------------------------------------------ *)
(* Stage x rule x DAG breakdown from a telemetry snapshot.             *)

type row = {
  br_dag : int;
  br_rule : Anchors.rule;
  br_stage : string;
  br_stats : Telemetry.histogram_stats;
}

(* Parse "ledger.dag<k>.<rule_tag>.<stage>"; anything else is not ours. *)
let row_of_stats (hs : Telemetry.histogram_stats) =
  match String.split_on_char '.' hs.Telemetry.hs_name with
  | [ "ledger"; dagpart; ruletag; stage ]
    when String.length dagpart > 3 && String.equal (String.sub dagpart 0 3) "dag" ->
    let dag = int_of_string_opt (String.sub dagpart 3 (String.length dagpart - 3)) in
    let rule = rule_of_tag ruletag in
    (match (dag, rule, List.mem stage stage_names) with
    | Some dag, Some rule, true -> Some { br_dag = dag; br_rule = rule; br_stage = stage; br_stats = hs }
    | _ -> None)
  | _ -> None

let stage_order stage =
  let rec go i = function
    | [] -> i
    | s :: rest -> if String.equal s stage then i else go (i + 1) rest
  in
  go 0 stage_names

let breakdown snap =
  snap.Telemetry.snap_histograms
  |> List.filter_map row_of_stats
  |> List.sort (fun a b ->
         let c = Int.compare a.br_dag b.br_dag in
         if c <> 0 then c
         else
           let c = Int.compare (rule_index a.br_rule) (rule_index b.br_rule) in
           if c <> 0 then c else Int.compare (stage_order a.br_stage) (stage_order b.br_stage))

let breakdown_table snap =
  let rows =
    List.map
      (fun r ->
        let s = r.br_stats in
        [
          string_of_int r.br_dag;
          Anchors.rule_tag r.br_rule;
          r.br_stage;
          string_of_int s.Telemetry.hs_count;
          Tablefmt.float_cell ~decimals:1 s.Telemetry.hs_p50;
          Tablefmt.float_cell ~decimals:1 s.Telemetry.hs_p90;
          Tablefmt.float_cell ~decimals:1 s.Telemetry.hs_p99;
          Tablefmt.float_cell ~decimals:1 s.Telemetry.hs_mean;
        ])
      (breakdown snap)
  in
  Tablefmt.render
    ~header:[ "dag"; "rule"; "stage"; "n"; "p50(ms)"; "p90(ms)"; "p99(ms)"; "mean(ms)" ]
    rows
