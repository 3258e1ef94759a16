(** Protocol configuration and the presets compared in the paper.

    A single parameterized replica implements the whole certified-DAG family;
    the presets differ in anchor schedule, commit rules, reputation, round
    wait policy, and the number of parallel DAGs:

    - {!bullshark}: anchors every other round, direct commit only, no
      reputation, liveness timeout on the round's anchor, k=1.
    - {!shoal}: anchors every round, reputation, k=1.
    - {!shoalpp}: all three Shoal++ augmentations — fast direct commit,
      all-eligible anchors with lockstep timeout, k=3 staggered DAGs.
    - [with_dags]: the paper's "Bullshark/Shoal More DAGs" variants.

    Invariants:
    - presets are immutable values: constructing or running one config never
      mutates another, and no global state is involved;
    - a config plus a seed fully determines replica behaviour — every knob
      that affects the protocol is in this record;
    - [k >= 1] and anchor schedules stay within the configured DAG count. *)

type t = {
  committee : Shoalpp_dag.Committee.t;
  name : string;
  num_dags : int;
  stagger_ms : float;  (** offset between consecutive DAG instances (§5.3) *)
  batch_cap : int;
  wait_policy : Shoalpp_dag.Instance.wait_policy;
  all_to_all_votes : bool;  (** §5.4 variant: quadratic vote broadcast, saves 1 md *)
  mode : Shoalpp_consensus.Anchors.mode;
  fast_commit : bool;
  reputation : bool;
  verify_signatures : bool;
  wal_sync_ms : float;
  fetch_delay_ms : float;
  gc_depth : int;
  checkpoint_interval : int;
      (** commit-certified checkpoints at least this many committed anchors
          apart in the merged sequence, each rounded up to the next merge
          turn end where every lane's last segment carries a driver
          snapshot (0 = checkpointing and pruning-to-checkpoint off). *)
  seed : int;
}

val shoalpp : committee:Shoalpp_dag.Committee.t -> t
val shoal : committee:Shoalpp_dag.Committee.t -> t
val bullshark : committee:Shoalpp_dag.Committee.t -> t

val with_all_to_all : t -> t
(** The §5.4 all-to-all certification variant of the given protocol
    (replicas aggregate certificates locally from broadcast votes; one
    message delay less per round, quadratic vote traffic). *)

val with_dags : t -> int -> t
(** Run [k] staggered DAG instances of the given protocol ("More DAGs"). *)

val with_stagger_for : max_one_way_ms:float -> t -> t
(** Stagger the [num_dags] lanes evenly over one round period, taken as
    three times the network's largest one-way delay (a round waits for the
    slowest certificate under [All_or_timeout]): [stagger_ms = 3 *
    max_one_way_ms / num_dags], so the lanes' rounds end evenly spaced and
    the merge never waits on a lane in phase with another. *)

val without_signature_checks : t -> t
(** For large benchmark sweeps; tests keep verification on. *)

val round_timeout : t -> float -> t
(** Replace the wait-policy timeout, keeping the policy's shape. *)

val with_checkpoint_interval : t -> int -> t
(** Enable checkpointing with boundaries at least [interval] committed
    anchors apart (0 disables).
    @raise Invalid_argument when [interval < 0]. *)

val effective_checkpoint_interval : t -> int
(** [checkpoint_interval], 0 when negative. Kept only because perfbench
    calls it; in-repo code reads the field. *)

val instance_config : t -> replica:int -> dag_id:int -> Shoalpp_dag.Instance.config
val driver_config : t -> dag_id:int -> Shoalpp_consensus.Driver.config
