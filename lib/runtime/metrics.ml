module Stats = Shoalpp_support.Stats

type t = {
  warmup_ms : float;
  latency : Stats.Summary.t;
  commits : Stats.Windowed.t; (* count per window *)
  latency_windows : Stats.Windowed.t; (* sum of latency per window *)
  mutable committed : int;
}

let create ?(warmup_ms = 0.0) ?(window_ms = 1000.0) () =
  {
    warmup_ms;
    latency = Stats.Summary.create ();
    commits = Stats.Windowed.create ~width:window_ms;
    latency_windows = Stats.Windowed.create ~width:window_ms;
    committed = 0;
  }

(* One warmup rule for every view of the data: a commit counts iff it
   happens at or after [warmup_ms], judged on commit time ([now]), never on
   [submitted_at]. Commit time is what both the scalar counters and the
   windowed series bucket on, so a single cutoff keeps [committed_tps] and
   [throughput_series] in exact agreement over the warmup window; submission
   time would let a pre-warmup backlog leak into one view but not the
   other. A transaction submitted during warmup but committed after it still
   measures the steady-state commit path, so it is included. *)
let observe_commit t ~submitted ~now =
  if now >= t.warmup_ms then begin
    let lat = now -. submitted in
    t.committed <- t.committed + 1;
    Stats.Summary.add t.latency lat;
    Stats.Windowed.add t.commits ~time:now ~value:1.0;
    Stats.Windowed.add t.latency_windows ~time:now ~value:lat
  end

let latency t = t.latency
let committed t = t.committed

let committed_tps t ~duration_ms =
  let effective = duration_ms -. t.warmup_ms in
  if effective <= 0.0 then 0.0 else float_of_int t.committed /. (effective /. 1000.0)

let throughput_series t = Stats.Windowed.rate_series t.commits

let latency_series t =
  (* Dense: a window with no commits (crash, partition) reports an explicit
     0.0 rather than being silently omitted — downstream tables and the
     §8 failure figures need the stall to be visible. *)
  List.map
    (fun (start, sum, cnt) ->
      (start, if cnt <= 0 then 0.0 else sum /. float_of_int cnt))
    (Stats.Windowed.series_filled t.latency_windows)
