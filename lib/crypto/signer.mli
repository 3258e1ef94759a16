(** Simulated replica signatures.

    The paper signs node proposals and votes with BLS over BLS12-381. The
    sealed environment has no pairing library, so signatures here are
    HMAC-SHA256 under a per-replica secret derived from a cluster seed.
    Within the simulation this gives the property consensus needs —
    a correct replica's signature cannot be fabricated by protocol code that
    does not call [sign] — while remaining interface-compatible with a real
    scheme. DESIGN.md §2 records the substitution.

    A {!registry} holds every replica's keyed HMAC midstate, derived once
    per committee; signing and verification read it and never re-derive a
    secret. It is immutable after construction, so the verify pool's
    domains share it without a lock.

    Invariants:
    - deterministic: signing uses no randomness, so equal (key, message)
      gives byte-equal signatures;
    - [verify] accepts exactly the signatures produced by [sign] under the
      matching keypair — protocol code without the secret cannot fabricate
      a correct replica's signature; a public key outside the registry
      verifies nothing;
    - keypairs are a pure function of (cluster_seed, replica index), and a
      registry is the keypairs of replicas [0, n). *)

type keypair
type public = int
(** Public keys are replica indices; the registry maps them to secrets. *)

type signature
type registry

val keygen : cluster_seed:int -> replica:int -> keypair
(** Deterministic keypair for [replica] in a cluster: one secret
    derivation plus the two HMAC key compressions. *)

val registry : cluster_seed:int -> n:int -> registry
(** The keypairs of replicas [0, n), derived once. *)

val size : registry -> int

val keypair : registry -> public -> keypair
(** @raise Invalid_argument if the replica is outside the registry. *)

val public : keypair -> public

val sign : keypair -> string -> signature
(** Sign a message (its raw bytes or digest). *)

val sign_into : keypair -> Sha256.ctx -> string -> Bytes.t -> unit
(** [sign_into kp scratch msg out] writes [raw (sign kp msg)] into the
    first 32 bytes of [out], computed in the reusable [scratch] context. *)

val verify : registry -> public -> string -> signature -> bool
(** Verify against the registry (every replica holds the genesis
    configuration it was derived from). *)

val signature_size : int
(** Modeled wire size in bytes (BLS12-381 G1 point: 48 bytes). *)

val raw : signature -> string

val of_raw : string -> signature
(** Reconstruct a signature from its 32 wire bytes (decoder use).
    @raise Invalid_argument on wrong length. *)

val pp : Format.formatter -> signature -> unit
