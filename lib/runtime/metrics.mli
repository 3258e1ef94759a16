(** Experiment metrics: end-to-end consensus latency and throughput.

    Latency is measured exactly as in the paper (§8): the time between a
    transaction's arrival at its local replica and the moment that replica
    appends a segment containing it to its global log. Throughput counts
    each transaction once, at its origin replica's commit. The only
    producer is {!Ledger.record}, the single origin-commit hook.

    Invariants:
    - each transaction contributes to latency / throughput at most once —
      at its origin replica's commit, and only when that commit happens at
      or after the warmup cutoff;
    - the warmup rule is single and uniform: the scalar counters
      ({!committed}, {!latency}) and the windowed series
      ({!throughput_series}, {!latency_series}) apply the same commit-time
      cutoff, so they agree exactly over the warmup window;
    - both time series are dense over the observed span: a window in which
      nothing committed (a crash, a partition) appears as an explicit zero
      row rather than being silently omitted, so fault stalls are visible
      in the §8 failure figures. *)

type t

val create : ?warmup_ms:float -> ?window_ms:float -> unit -> t
(** Commits before [warmup_ms] (default 0) are excluded from every statistic
    — the cutoff is judged on {e commit time}, not submission time, so the
    counters and the windowed series cannot disagree (a transaction
    submitted during warmup but committed after it still measures the
    steady-state commit path and is included). [window_ms] (default 1000)
    sizes time-series buckets. *)

val observe_commit : t -> submitted:float -> now:float -> unit
(** Record one origin commit of a transaction submitted at [submitted] and
    ordered at [now] (both ms): latency [now - submitted]. Commits before
    the warmup cutoff are ignored. *)

val latency : t -> Shoalpp_support.Stats.Summary.t
val committed : t -> int
(** Unique transactions committed at their origin after warmup. *)

val committed_tps : t -> duration_ms:float -> float
val throughput_series : t -> (float * float) list
(** (window start ms, tx/s) commits per second over time — Fig 8's series. *)

val latency_series : t -> (float * float) list
(** (window start ms, mean latency ms in that window). *)
