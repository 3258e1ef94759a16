(** Fault schedules: the concrete, per-replica timeline of every disruption a
    run injects — crash (and optional recovery) times, sporadic egress
    message drops, and timed network partitions (§8.3, Figs 7 and 8).

    This is the {e materialized} counterpart of {!Faults}: a declarative,
    size-independent {!Faults.t} scenario is bound to a concrete cluster
    size by {!Faults.schedule}, which produces a value of this module's
    type. Harness code composes schedules directly only for hand-built
    experiments; everything scenario-driven goes through {!Faults}.

    This module is purely declarative: it answers point-in-time queries
    ([is_crashed], [egress_drop_rate], [reachable]) and never touches the
    engine. {!Netmodel} consults it on every send/delivery, and
    {!Shoalpp_runtime.Cluster} schedules the matching replica-side events
    (crash/recover calls, partition trace events) from the same schedule, so
    the network view and the replica view cannot drift apart.

    Invariants:
    - all queries are pure functions of (schedule, time) — fault evaluation
      never draws randomness, so injecting a fault cannot perturb the
      simulation's random streams;
    - a replica's up/down state is the parity of its crash/recover events:
      crashed at [t] iff the latest event at or before [t] is a crash
      (same-instant recovery wins);
    - partitions only constrain pairs whose {e both} endpoints are named in
      the partition's groups; unnamed replicas keep full connectivity. *)

type t

(** A timed split of the cluster: replicas in different [groups] cannot
    exchange messages while [from_time <= now < until_time]. *)
type partition = { groups : int list list; from_time : float; until_time : float }

val none : t

val crash : t -> replica:int -> at:float -> t
(** Replica stops sending and receiving from [at] (ms) onward (until a later
    {!recover} event, if any). *)

val crash_many : t -> replicas:int list -> at:float -> t

val recover : t -> replica:int -> at:float -> t
(** Replica is up again from [at] onward. The runtime pairs this with a WAL
    replay on the replica itself; here it only flips the reachability
    state. *)

val drop_egress : t -> replicas:int list -> rate:float -> from_time:float -> ?until_time:float -> unit -> t
(** Each egress message of the listed replicas is independently dropped with
    probability [rate] during the window — the paper's "1% egress drops on
    5 of 100 nodes from t=60 s" scenario. *)

val partition : t -> groups:int list list -> from_time:float -> until_time:float -> t
(** Cut the network into [groups] during the window. Messages between
    different groups are blocked at send time; the heal at [until_time] is
    instantaneous. *)

val is_crashed : t -> replica:int -> time:float -> bool

val crash_time : t -> replica:int -> float option
(** Earliest scheduled crash, if any. *)

val egress_drop_rate : t -> src:int -> time:float -> float
(** Combined drop probability for messages leaving [src] at [time]. *)

val reachable : t -> src:int -> dst:int -> time:float -> bool
(** False iff some active partition places [src] and [dst] in different
    groups at [time]. Loopback ([src = dst]) is always reachable. *)

val partitions : t -> partition list
(** All scheduled partitions (for the runtime to schedule open/heal events
    and trace them). *)

val crashed_replicas : t -> time:float -> int list
