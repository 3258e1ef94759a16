(** Geographic network topologies.

    The paper deploys 100 replicas evenly over 10 GCP regions with inter-
    region RTTs between 25 ms and 317 ms. [gcp10] encodes a representative
    RTT matrix for those regions; [uniform] gives the constant-delay network
    used for message-delay accounting (Table T1); [clique] is a small-n
    testing topology.

    Invariants:
    - delays are symmetric ([one_way_ms a b = one_way_ms b a]) and strictly
      positive, including within a region;
    - topologies are pure values: the same constructor arguments always
      yield the same matrix and the same round-robin assignment. *)

type t

val gcp10 : unit -> t
(** The paper's 10-region GCP deployment. *)

val uniform : delay_ms:float -> t
(** A single region where every one-way message takes exactly [delay_ms]. *)

val clique : regions:int -> one_way_ms:float -> t
(** [regions] identical regions, [one_way_ms] between distinct regions, for
    tests that need small asymmetries. *)

val num_regions : t -> int

val one_way_ms : t -> int -> int -> float
(** Base one-way propagation delay between two regions (RTT/2). Within a
    region this is small but non-zero. *)

val assign_round_robin : t -> n:int -> int array
(** Spread [n] replicas evenly across regions, replica [i] in region
    [i mod num_regions] — the paper's "spread evenly" placement. *)

val delay_matrix : t -> n:int -> float array array
(** Per-replica one-way delay matrix under the round-robin placement:
    [d.(src).(dst)] is {!one_way_ms} between their regions, [0.0] on the
    diagonal (a replica's messages to itself stay local). The form the
    real-time node's geography shim consumes
    ({!Shoalpp_runtime.Node.setup.delays_ms}). *)

val max_one_way_ms : t -> float
