(** Wall-clock executor behind {!Backend}.

    Runs the same protocol code as the simulator on real time: a timer
    wheel over a mutex-protected binary heap ({!Shoalpp_support.Heap}),
    a monotonic millisecond clock (clamped against system-clock steps),
    and the in-process loopback transport dispatching through the timer
    loop. Socket transports (TCP and Unix-domain) are
    {!Stream_transport}, driven by this executor's I/O pollers.

    Each executor's event loop is single-threaded: {!run_for} fires due
    timers in (due-time, scheduling-order) order and multiplexes socket
    readiness with [select] between them. [schedule]/[cancel] are
    mutex-protected and cross-domain safe — arming a timer from a foreign
    domain pokes a wakeup pipe so a sleeping loop re-reads its horizon —
    but transport handlers and timer callbacks always run on the loop's
    own thread. Multicore mode runs one executor per domain
    ({!run_in_domain}) with {!post} as the only cross-domain handoff; all
    executors can share one clock origin via [?origin_of] so their
    timelines compare directly.

    Invariants:
    - {!Backend.Clock} readings never decrease; time is ms since
      {!create};
    - a message handler is never invoked from inside [send] and always
      runs on the loop's own thread — loopback deliveries go through a
      zero-delay timer, socket deliveries through the read side of the
      loop;
    - per-sender FIFO order is preserved (equal due-times fire in
      scheduling order; stream sockets preserve byte order);
    - the first {!create} ignores [SIGPIPE] process-wide: a write into a
      reset connection must surface as [EPIPE] for the transports'
      teardown paths, never kill the process. *)

type t
(** The executor: clock origin, timer heap, and I/O poller registry. *)

val create : ?max_tick_ms:float -> ?origin_of:t -> unit -> t
(** [max_tick_ms] (default 50) bounds how long the loop sleeps between
    timer checks, which also bounds shutdown latency of {!stop}.
    [origin_of] shares another executor's clock origin so that [now_ms]
    readings from both executors lie on one timeline (used by the
    multicore node, where per-DAG lane executors must stamp events
    comparably with the main loop's). *)

val now_ms : t -> float
(** Milliseconds since {!create}, monotonically clamped. *)

val clock : t -> Backend.Clock.t
val timers : t -> Backend.Timers.t

val backend : t -> 'msg Backend.Transport.t -> 'msg Backend.t
(** Assemble a full backend from this executor and a transport. *)

val run_for : t -> duration_ms:float -> unit
(** Drive the loop for [duration_ms] of wall time (or until {!stop}).
    Re-entrant calls are not allowed. *)

val stop : t -> unit
(** Ask a running {!run_for} to return after the current iteration. May be
    called from a timer callback or another domain (a sleeping loop is
    woken). *)

val post : t -> (unit -> unit) -> unit
(** Run a closure on this executor's loop as soon as possible. Safe from
    any domain; the closure runs on the loop thread in FIFO order with
    respect to other zero-delay work. This is the only sanctioned way to
    hand data between domains in the multicore node. *)

val run_in_domain : t -> unit
(** Spawn a fresh domain that drives this executor ({!run_for} with an
    unbounded duration) until {!stop_and_join}. At most one loop domain
    per executor. *)

val stop_and_join : t -> unit
(** Stop the loop started by {!run_in_domain} and join its domain. After
    return no callback of this executor is running or will run, and
    {!run_in_domain} may be called again. Falls back to {!stop} when no
    loop domain was spawned. *)

val events_fired : t -> int
val pending_timers : t -> int

(** {2 I/O polling} — used by {!Stream_transport} and the admin server.
    Callbacks run on the loop thread when the descriptor is readable
    (pollers) or writable (wpollers). *)

val add_poller : t -> Unix.file_descr -> (unit -> unit) -> unit
val remove_poller : t -> Unix.file_descr -> unit
val add_wpoller : t -> Unix.file_descr -> (unit -> unit) -> unit
val remove_wpoller : t -> Unix.file_descr -> unit

(** {2 Transports} *)

val loopback : t -> n:int -> ?delay_ms:float -> unit -> 'msg Backend.Transport.t
(** In-process transport: [send] arms a timer [delay_ms] (default 0) ahead
    that invokes the destination handler. Nothing is serialized; [size] is
    charged to the byte counter as declared. *)

val delayed :
  t ->
  delay_ms:(src:int -> dst:int -> float) ->
  'msg Backend.Transport.t ->
  'msg Backend.Transport.t
(** Per-link delay shim over any transport: each [send] is held on a
    sender-side timer for [delay_ms ~src ~dst] milliseconds before being
    handed to the inner transport, so one machine can emulate a
    geo-distributed deployment (e.g. the paper's gcp10 topology) over real
    sockets. Constant per-link delays preserve per-(src, dst) FIFO order;
    stats are the inner transport's. A zero or negative delay sends
    immediately with no timer hop. *)
