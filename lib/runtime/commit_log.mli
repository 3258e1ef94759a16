(** The one observer of "a replica ordered a segment" for the Shoal++
    harnesses ({!Cluster}, simulated; {!Node}, wall clock).

    Each harness creates one log and passes {!on_ordered} to every
    replica. Per ordered segment the log appends the anchor identity to
    the replica's log, checks each transaction against the replica's
    dedup table, and hands each origin transaction to {!Ledger.record} —
    the only recorder of per-transaction latency. Crash recovery goes
    through {!begin_recovery} / {!caught_up}, which snapshot the pre-crash
    log and mute the ledger and the duplicate check while the replica
    replays and catches up. {!audit} then performs the safety checks of
    the paper's correctness section over the collected logs.

    Invariants:
    - each transaction reaches the ledger at most once per run: only at
      its origin replica, and never while that replica is recovering;
    - a duplicate order is counted only outside recovery: WAL replay and
      catch-up sync re-order history by design;
    - logs are kept in global-sequence coordinates: a replica recovered
      from a checkpoint holds entries from its base sequence on, and every
      comparison in {!audit} and {!prefixes_agree} is offset by the bases;
    - with [track_logs = false] neither logs nor dedup tables are kept:
      the audit sees empty logs and zero duplicates, the ledger is fed as
      usual. *)

type t

val create : n:int -> num_dags:int -> ?track_logs:bool -> ledger:Ledger.t -> unit -> t
(** A log for replicas [0 .. n - 1] running [num_dags] DAG lanes.
    [track_logs] (default true) keeps the per-replica logs and dedup
    tables the audit reads. *)

val on_ordered : t -> replica:int -> Shoalpp_core.Replica.ordered -> unit
(** The replica's ordered-segment hook ({!Shoalpp_core.Replica.create}'s
    [on_ordered]). *)

val begin_recovery : t -> replica:int -> base_seq:int -> unit
(** Call just before {!Shoalpp_core.Replica.recover}, with the replica's
    pre-crash base sequence: snapshots its log for the
    [recovery_prefix_ok] audit, clears the log and dedup table, and mutes
    the ledger and the duplicate check until {!caught_up}. *)

val caught_up : t -> replica:int -> unit
(** The replica's [on_caught_up] hook: recovery finished, recording
    resumes. *)

val recovering : t -> replica:int -> bool

val ordered_ids : t -> replica:int -> (int * int * int) list
(** The replica's log as [(dag, round, author)] anchor identities, oldest
    first. *)

val prefixes_agree : equal:('a -> 'a -> bool) -> ?bases:int array -> 'a array array -> bool
(** Pairwise common-prefix agreement: [logs.(i).(k)] holds sequence
    number [bases.(i) + k] (bases default to 0), and every pair of logs
    must hold [equal] entries at every sequence number both cover. *)

type audit = {
  consistent_prefixes : bool;  (** {!prefixes_agree} over all replica logs *)
  prefix_length : int;
      (** the shortest replica log, in global sequence numbers (base
          included) *)
  duplicate_orders : int;  (** txns ordered twice by the same replica *)
  total_segments : int;
      (** the longest replica log, in global sequence numbers (base
          included): how many segments the furthest replica ordered *)
  recovery_prefix_ok : bool;
      (** every recovered replica's rebuilt log reaches at least as far as
          its pre-crash log and agrees with it where both hold entries
          (vacuously true when nothing recovered) *)
  recoveries_audited : int;  (** replicas with a pre-crash snapshot *)
  anchors_per_lane : int array;
      (** segments replica 0 ordered per DAG lane (length [num_dags]) —
          every lane of a healthy run shows at least one *)
}

val audit : t -> bases:int array -> audit
(** [bases.(i)] is replica [i]'s current base sequence
    ({!Shoalpp_core.Replica.base_seq}). *)
