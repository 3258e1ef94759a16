(** Simulated write-ahead log with segment rotation.

    Stands in for the RocksDB consensus store of the paper's prototype: what
    matters to consensus latency is that certificate persistence costs a
    bounded sync delay before a vote/commit may be externalized. Writes to a
    busy device queue behind each other; concurrent appends issued while a
    sync is in flight coalesce into the next sync (group commit), which is
    how production WALs keep persistence off the throughput critical path.

    Retained payloads live in {e segments}. A checkpoint certification
    rotates the log ({!rotate}) and truncates segments below the previous
    checkpoint's rotation point ({!truncate_below}), so replay after a crash
    starts from the latest checkpoint window instead of genesis. Rotation
    and truncation are pure list operations — they schedule no timers and
    never touch the device queue, so enabling them cannot perturb the sync
    timing of protocol records.

    Sync completion is driven by a {!Shoalpp_backend.Backend.Timers}
    handle, so the same log runs under the simulator or the wall-clock
    executor.

    Invariants:
    - a record is reported durable (its sync callback fires) only after the
      modeled device delay has elapsed; callbacks fire in append order;
    - group commit coalesces syncs but never reorders or drops records —
      replay after a crash returns exactly the durable prefix of retained
      segments, in order;
    - a retained payload lands in the segment that is current when its sync
      {e completes}; [truncate_below] never drops the current segment, so an
      in-flight append cannot lose durability to a concurrent truncation;
    - all timing flows through the injected backend timers (no wall clock). *)

type t

val create :
  timers:Shoalpp_backend.Backend.Timers.t ->
  sync_latency_ms:float ->
  ?group_commit:bool ->
  ?retain:bool ->
  unit ->
  t
(** [sync_latency_ms] = 0 models the in-memory configuration (the paper's
    Mysticeti baseline forgoes persistence). [group_commit] defaults to
    true. [retain] (default false) keeps synced payloads in memory so a
    recovering replica can replay them ({!entries}); crash-recovery
    scenarios enable it. A fresh log has one empty segment (id 0). *)

val append : t -> ?payload:string -> (unit -> unit) -> unit
(** Schedule a durable write; the callback fires when the write has
    synced. With zero latency the callback fires on the next
    engine step (never synchronously, so callers can rely on async order).
    [payload] is retained for replay only if the log was created with
    [retain] — and only once its sync completes, so appends in flight at a
    crash are lost, exactly as on a real device. *)

val rotate : t -> int
(** Seal the current segment and open a fresh one; returns the new
    segment's id. Ids are monotonic. Pure bookkeeping: no device traffic. *)

val truncate_below : t -> seg:int -> int
(** Drop retained segments with id < [seg]; returns the number of entries
    dropped. The current (newest) segment is never dropped. Callers keep
    the rotation point of the previous certified checkpoint as [seg], which
    retains the last two checkpoint windows — enough to cover any record a
    restart could still need, provided the checkpoint interval exceeds the
    commit pipeline depth (gc_depth rounds per lane). *)

val clear : t -> unit
(** Simulated total disk loss (recovery-from-peers tests): every retained
    segment is dropped and a fresh empty segment opened. In-flight appends
    still complete into the fresh segment. *)

val entries : t -> string list
(** Synced retained payloads across all retained segments, oldest first
    (empty unless [retain]). *)

val segments : t -> (int * int) list
(** Retained [(segment id, entry count)] pairs, oldest first. *)

val retains : t -> bool
(** Whether this log retains payloads (callers skip encoding otherwise). *)

val appends : t -> int
val syncs : t -> int
(** Number of device sync operations; < [appends] when group commit
    coalesces. *)
