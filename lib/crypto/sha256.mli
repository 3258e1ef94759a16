(** Pure-OCaml SHA-256 (FIPS 180-4).

    The sealed build environment has no crypto libraries, so the repository
    carries its own implementation. It is used for content digests (node ids,
    batch digests) and as the PRF behind the simulated signature scheme.

    Invariants:
    - matches FIPS 180-4 (checked against standard vectors in tests);
    - pure and reentrant: no global state, identical input gives identical
      output on every platform and OCaml version. *)

type ctx

val init : unit -> ctx
val feed_string : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> unit

val finalize : ctx -> string
(** 32-byte raw digest. The context must not be reused afterwards. *)

val digest_string : string -> string
(** One-shot convenience: 32-byte raw digest of the input. *)

type hmac_key
(** An HMAC-SHA256 key absorbed once: the chaining values after the
    key-XOR-ipad and key-XOR-opad blocks (the inner and outer midstates).
    Immutable once built, so one value may be shared by every domain. *)

val hmac_key : string -> hmac_key
(** Two compressions (three for keys longer than 64 bytes, which are
    hashed first, per RFC 2104). *)

val hmac_into : hmac_key -> ctx -> string -> Bytes.t -> unit
(** [hmac_into key scratch msg out] writes the 32-byte HMAC of [msg] into
    [out] at offset 0, running both passes in [scratch], which it
    reinitializes; [scratch] may be reused for any number of calls. A
    message of at most 55 bytes costs two compressions and allocates
    nothing. *)

val hmac_keyed : hmac_key -> string -> string
(** [hmac_into] with a fresh scratch context and output. *)

val hmac : key:string -> string -> string
(** One-shot HMAC-SHA256: [hmac_keyed (hmac_key key)]. *)

val to_hex : string -> string
(** Lowercase hex of a raw digest. *)
