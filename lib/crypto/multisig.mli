(** Simulated BLS multi-signatures: an aggregate over one message with a
    signer bitmap, as used for DAG node certificates (n-f vote signatures
    aggregated into one certificate).

    Aggregation combines the individual HMAC signatures by hashing them in
    signer order; verification recomputes each signer's expected signature
    from the {!Signer.registry}, mirroring how a real BLS verifier checks
    the aggregate against the aggregated public key. The 32-byte combined
    hash travels on the wire ({!combined}/{!of_wire}) and a decoder never
    recomputes it. Wire size is modeled as one BLS signature plus the
    bitmap, matching the paper's certificate sizes.

    Invariants:
    - an aggregate verifies iff every signer set in the bitmap signed that
      exact message — adding, removing or swapping a signer breaks it;
    - aggregation is deterministic: signatures are combined in ascending
      signer order, so equal inputs give byte-equal aggregates;
    - modeled wire size depends only on (n, bitmap), not on signer values. *)

type t

val aggregate : n:int -> (Signer.public * Signer.signature) list -> t
(** [aggregate ~n sigs] over a committee of size [n].
    @raise Invalid_argument on duplicate signers or out-of-range ids. *)

val signers : t -> Shoalpp_support.Bitset.t
val num_signers : t -> int

val combined : t -> string
(** The 32-byte combined hash: what the wire carries besides the bitmap. *)

val of_wire : n:int -> signers:int list -> combined:string -> t
(** Rebuild a decoded aggregate as-is; only {!verify} can tell whether the
    signers really signed.
    @raise Invalid_argument on duplicate or out-of-range signers, or a
    combined hash that is not 32 bytes. *)

val verify : Signer.registry -> t -> string -> bool
(** Every signer in the bitmap is in the registry and the combined hash is
    that of their signatures over the message. Allocates a fixed amount,
    independent of the number of signers. *)

val wire_size : t -> int
(** Modeled bytes: 48-byte aggregate + ceil(n/8) bitmap. *)

val pp : Format.formatter -> t -> unit
