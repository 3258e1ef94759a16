(** Per-commit latency ledger: the one origin-commit hook. Every system
    calls {!record} once per transaction, at its origin replica's commit,
    and every per-transaction latency figure of the run is derived from
    that call:

    - the run's {!Metrics} (end-to-end latency and throughput, §8), when
      {!create} is given one;
    - the run-wide histograms [stage.submit_to_batch],
      [stage.batch_to_proposal], [stage.proposal_to_commit],
      [stage.commit_to_order] and [latency.e2e], plus the per-lane counter
      [dag<k>.txns] and histogram [dag<k>.latency] (read by {!Report},
      {!Prom} and the [--metrics-out] exports);
    - the same stage deltas keyed by DAG lane and commit rule, as
      histograms [ledger.dag<k>.<rule_tag>.<stage>];
    - a bounded ring of raw entries behind the admin endpoint's [/ledger]
      JSON tail.

    Callers: the Shoal++ harnesses ({!Cluster}, {!Node}) through
    {!Commit_log.on_ordered}, the baselines from their block/segment
    commit paths.

    Invariants:
    - recording is effect-free beyond this ring, the attached metrics and
      the attached telemetry registry: no trace events, no scheduled
      timers, no I/O — a ledger on the simulated cluster leaves golden
      trace digests, event counts and exported trace bytes
      byte-identical;
    - each origin transaction is recorded at most once (call sites record
      only [origin = replica_id] commits outside WAL replay), so
      [recorded] counts unique origin commits and every run-wide stage
      histogram has exactly [recorded] observations;
    - the ring keeps the newest [capacity] entries; {!dropped} = total
      recorded - retained, never negative;
    - {!breakdown} rows are deterministically ordered (DAG id, then rule,
      then pipeline stage) regardless of snapshot hash order. *)

type entry = {
  le_tx : int;  (** transaction id *)
  le_origin : int;  (** origin replica (= the recording replica) *)
  le_dag : int;  (** DAG lane that carried the transaction *)
  le_rule : Shoalpp_consensus.Anchors.rule;  (** rule that committed its anchor *)
  le_seq : int;  (** global sequence of the ordered segment *)
  le_submitted : float;  (** ms: client submit *)
  le_batched : float;  (** ms: batch sealed *)
  le_included : float;  (** ms: DAG node (proposal) created *)
  le_committed : float;  (** ms: anchor commit decision *)
  le_ordered : float;  (** ms: segment interleaved into the global log *)
}

val stage_names : string list
(** The ledger's stage keys in pipeline order ([submit_to_batch],
    [batch_to_inclusion], [inclusion_to_commit], [commit_to_order]) plus
    [e2e]. *)

val rule_of_kind : Shoalpp_consensus.Driver.kind -> Shoalpp_consensus.Anchors.rule
(** Committed segments map [Fast -> Fast_direct], [Direct ->
    Certified_direct], [Indirect -> Indirect_rule]; [Skipped] anchors never
    produce a segment, so no entry carries it. *)

val metric_name :
  dag:int -> rule:Shoalpp_consensus.Anchors.rule -> string -> string
(** ["ledger.dag<k>.<rule_tag>.<stage>"] — the telemetry histogram a stage
    delta is aggregated into. *)

type t

val default_capacity : int

val create :
  ?telemetry:Shoalpp_support.Telemetry.t ->
  ?metrics:Metrics.t ->
  ?lanes:int ->
  ?capacity:int ->
  unit ->
  t
(** [capacity] (clamped to >= 1) bounds the raw-entry ring; histograms, if
    a registry is given, aggregate every entry regardless. The run-wide
    stage histograms are registered at once, as are the [dag<k>.*]
    instruments of lanes [0 .. lanes - 1] (default 0; other lanes register
    at their first entry), so a stage or lane that never commits still
    shows an explicit zero row. *)

val record : t -> entry -> unit

val recorded : t -> int
val capacity : t -> int

val dropped : t -> int
(** Entries evicted from the ring (aggregates still include them). *)

val tail : ?limit:int -> t -> entry list
(** Retained entries oldest-first; [limit] keeps only the newest that
    many. *)

val json_tail : ?limit:int -> t -> string
(** JSON object [{recorded, dropped, entries: [...]}] — the [/ledger]
    admin endpoint body. *)

(** {2 Stage x rule x DAG breakdown} *)

type row = {
  br_dag : int;
  br_rule : Shoalpp_consensus.Anchors.rule;
  br_stage : string;
  br_stats : Shoalpp_support.Telemetry.histogram_stats;
}

val breakdown : Shoalpp_support.Telemetry.snapshot -> row list
(** All [ledger.*] histograms of a snapshot, parsed and sorted by
    (DAG, rule, pipeline stage). *)

val breakdown_table : Shoalpp_support.Telemetry.snapshot -> string
(** Human table (via {!Shoalpp_support.Tablefmt}) of {!breakdown}:
    percentiles per stage x rule x DAG. Empty runs render a header-only
    table. *)
