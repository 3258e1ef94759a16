(** Sans-I/O runtime interface: the boundary between the protocol core and
    whatever executes it.

    The protocol layers (dag, consensus, core, baselines) never name an
    executor; everything they need from the outside world — reading the
    clock, arming timers, moving bytes — goes through the three records
    defined here. An executor supplies concrete closures at construction
    time: {!Backend_sim} wraps the discrete-event engine and network model
    (byte-identical to calling them directly), {!Backend_realtime} runs the
    same protocol code on a wall clock with an in-process loopback or a
    {!Stream_transport} (TCP or Unix-domain sockets), each an additive
    module behind this same interface.

    Invariants:
    - time is a [float] in milliseconds from an executor-defined origin and
      never moves backwards;
    - timer callbacks fire in (due-time, scheduling-order) order; a
      cancelled or already-fired timer never fires, and [cancel] is an
      idempotent no-op;
    - transport handlers are invoked asynchronously with respect to [send]
      (never from inside the sending call), exactly once per delivered
      message. *)

type timer = { cancel : unit -> unit; is_pending : unit -> bool }
(** Handle for a scheduled event. A first-class record of closures so that
    protocol state machines can hold timers without knowing which executor
    armed them. *)

module Clock : sig
  type t = {
    now : unit -> float;
        (** Current time in ms — the timeline used for trace timestamps,
            latency metrics, and timer due-times. *)
    monotonic : unit -> float;
        (** Non-decreasing reading for interval measurement. In the
            simulator this equals {!now}; a wall-clock executor clamps it
            against steps of the system clock. *)
  }
end

module Timers : sig
  type t = {
    schedule : after:float -> (unit -> unit) -> timer;
        (** Run the callback [after] ms from now (negative delays fire
            "now", still asynchronously). *)
    schedule_at : at:float -> (unit -> unit) -> timer;
        (** Absolute-time variant; times in the past fire "now". *)
  }
end

module Transport : sig
  type stats = { sent : int; dropped : int; partitioned : int; bytes : float }
  (** Cumulative counters; [bytes] charges the declared size of each sent
      message (the size bandwidth models and reports account for). *)

  type 'msg t = {
    n : int;  (** number of addressable replicas, ids [0..n-1] *)
    send : src:int -> dst:int -> size:int -> 'msg -> unit;
    broadcast : src:int -> size:int -> include_self:bool -> 'msg -> unit;
    set_handler : int -> (src:int -> 'msg -> unit) -> unit;
        (** Install the receive callback for a replica. Messages arriving
            for a replica with no handler are discarded. *)
    stats : unit -> stats;
  }
end

type 'msg t = {
  clock : Clock.t;
  timers : Timers.t;
  transport : 'msg Transport.t;
  control : 'msg Transport.t option;
      (** Optional out-of-band control plane (checkpoint votes, catch-up
          sync). The simulator supplies one whose deliveries draw no
          randomness and skip the data plane's queuing model, preserving
          golden determinism; realtime executors leave it [None] and
          control traffic shares the data sockets. Handlers are shared:
          installing via [set_handler] receives from both planes. *)
}
(** One replica-facing bundle. All replicas of an in-process cluster may
    share a single backend value; [src] arguments identify the sender. *)

(** Convenience wrappers, so protocol code reads [Backend.now b] rather than
    reaching through record fields. *)

val now : _ t -> float
val monotonic : _ t -> float
val schedule : _ t -> after:float -> (unit -> unit) -> timer
val schedule_at : _ t -> at:float -> (unit -> unit) -> timer

val cancel : timer -> unit
val is_pending : timer -> bool

val cancel_opt : timer option -> unit
(** [cancel_opt None] is a no-op. *)

val n : _ t -> int
val send : 'msg t -> src:int -> dst:int -> size:int -> 'msg -> unit

val broadcast : 'msg t -> src:int -> size:int -> ?include_self:bool -> 'msg -> unit
(** [include_self] (default true) delivers a loopback copy. *)

val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
val stats : _ t -> Transport.stats

val control_send : 'msg t -> src:int -> dst:int -> size:int -> 'msg -> unit
(** Send on the control plane, falling back to the data transport when the
    executor supplies none. *)

val control_broadcast : 'msg t -> src:int -> size:int -> ?include_self:bool -> 'msg -> unit

val control_stats : _ t -> Transport.stats option
(** Control-plane counters ([None] when control shares the data plane). *)
