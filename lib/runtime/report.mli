(** Uniform result record for all systems (Shoal++ family and baselines), so
    figure harnesses can tabulate them side by side.

    Invariants:
    - every field is system-agnostic: baselines without a DAG leave the
      commit-rule counts at 0 rather than omitting them;
    - rendering handles empty runs — zero commits print explicit zero rows
      (stage table, per-DAG attribution), never NaNs or missing lines. *)

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
      (** {!Shoalpp_support.Telemetry.empty_snapshot} for runs without a
          registry *)
  trace_dropped : int;
      (** events evicted from the run's trace ring (0 when untraced);
          {!pp_extended} warns visibly when positive *)
}

val make :
  name:string ->
  n:int ->
  load_tps:float ->
  duration_ms:float ->
  submitted:int ->
  metrics:Metrics.t ->
  ?fast_commits:int ->
  ?direct_commits:int ->
  ?indirect_commits:int ->
  ?skipped_anchors:int ->
  messages_sent:int ->
  messages_dropped:int ->
  bytes_sent:float ->
  ?telemetry:Shoalpp_support.Telemetry.snapshot ->
  ?trace_dropped:int ->
  unit ->
  t

val of_replicas :
  name:string ->
  replicas:Shoalpp_core.Replica.t array ->
  mempools:Shoalpp_workload.Mempool.t array ->
  load_tps:float ->
  duration_ms:float ->
  metrics:Metrics.t ->
  net:Shoalpp_backend.Backend.Transport.stats ->
  telemetry:Shoalpp_support.Telemetry.snapshot ->
  trace_dropped:int ->
  t
(** The Shoal++ harnesses' report ({!Cluster}, {!Node}): commit-rule
    counts summed over every replica's DAG lanes, submitted load from the
    mempools, message counts from the transport ([dropped] includes
    partitioned sends). *)

val rule_mix : t -> (Shoalpp_consensus.Anchors.rule * float) list
(** Fractions of anchor resolutions per commit rule (fast-direct /
    certified-direct / indirect / skipped). *)

(** {2 Snapshot rendering}

    Human-readable views of a raw {!Shoalpp_support.Telemetry.snapshot},
    independent of a full report — used by {!pp_extended} and by the
    realtime node's shutdown summary. Rendering is total: a stage with no
    samples prints an explicit zero row. *)

val stage_names : (string * string) list
(** [(label, metric name)] of the commit-path stage histograms, in pipeline
    order, ending with end-to-end latency. *)

val rule_mix_of_snapshot :
  Shoalpp_support.Telemetry.snapshot -> (Shoalpp_consensus.Anchors.rule * float) list
(** Fractions of anchor resolutions per commit rule, from the [commit.*]
    counters (zeros when absent). *)

val pp_stages : Format.formatter -> Shoalpp_support.Telemetry.snapshot -> unit

val pp : Format.formatter -> t -> unit
val pp_rule_mix : Format.formatter -> t -> unit

val pp_extended : Format.formatter -> t -> unit
(** {!pp} plus the commit-rule mix, and — when the run carried a telemetry
    registry — the per-stage latency breakdown and per-DAG tps/latency. *)

val table_header : string list
val table_row : t -> string list
(** For {!Shoalpp_support.Tablefmt}. *)
