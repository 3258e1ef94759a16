(** Static committee configuration: n = 3f+1 replicas, standard BFT
    assumptions (§2 of the paper).

    Invariants:
    - [n = 3*f + 1] with [f = (n-1)/3]; the type is private, so every value
      in circulation went through the validating constructor;
    - keypairs and the genesis digest derive solely from [cluster_seed] —
      two committees with equal seed and size are interchangeable;
    - [keys] is derived once, in [make], and never mutated: every replica,
      lane and verify-pool domain sharing the committee reads it without a
      lock. *)

type t = private {
  n : int;
  f : int;  (** max Byzantine replicas tolerated: (n-1)/3 *)
  cluster_seed : int;  (** genesis randomness; derives all keypairs *)
  genesis : Shoalpp_crypto.Digest32.t;  (** virtual parent digest of round 0 *)
  keys : Shoalpp_crypto.Signer.registry;  (** every replica's signing key *)
}

val make : n:int -> ?cluster_seed:int -> unit -> t
(** @raise Invalid_argument if [n < 4]. *)

val quorum : t -> int
(** n - f certificates / votes — availability quorum. *)

val weak_quorum : t -> int
(** f + 1 — at least one correct replica. *)

val fast_quorum : t -> int
(** 2f + 1 proposals — the Fast Direct Commit threshold (§5.1). *)

val keypair : t -> int -> Shoalpp_crypto.Signer.keypair
(** Read from [keys].
    @raise Invalid_argument if the replica is not in the committee. *)

val valid_replica : t -> int -> bool
val pp : Format.formatter -> t -> unit
