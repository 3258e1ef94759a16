(** Length-prefixed stream-socket transport with per-peer write coalescing
    and lazy reconnect, for {!Backend_realtime}.

    Replica [i] listens on [addrs.(i)]: an [ADDR_INET] address for TCP
    ([port 0] lets the kernel pick; read the result back with {!addrs}) or
    an [ADDR_UNIX] path for Unix-domain sockets. Both families share one
    code path. Frames are the {!Framing} format — a 4-byte big-endian body
    length, then a {!Shoalpp_codec.Wire} body of [(uint src; bytes
    payload)] — so one socket per (process, destination) suffices and the
    receiver learns the sender from the frame.

    - {b Write coalescing}: with [coalesce_us > 0], frames to one peer
      accumulate in a pending buffer and are flushed as a single aggregated
      write when 64 KiB accumulate or the latency budget expires, whichever
      comes first — many small protocol messages per syscall, the real-time
      analogue of the simulator's region-batched broadcast. On TCP,
      [TCP_NODELAY] is set so the kernel never stacks a Nagle delay on top.
    - {b Lazy reconnect}: outbound connections are dialed non-blockingly on
      first use; a failed dial or torn-down stream drops the queued frames
      (counted in [stats.dropped]), doubles the peer's retry delay (10 ms
      base, 2 s cap), and a later send past the deadline re-dials. A
      restarted peer is re-adopted without the sender ever blocking.

    Invariants:
    - [send] never blocks and never invokes a message handler inline: all
      socket I/O happens on the executor's select loop, so every handler
      runs on that loop's domain;
    - per-(src, dst) frame order is preserved: coalescing concatenates in
      send order, the stream preserves byte order, and the decoder yields
      frames in stream order (order restarts on reconnect — frames lost to
      a teardown are dropped, never reordered);
    - outbound memory per peer is bounded (8 MiB); frames beyond the cap
      are dropped and counted;
    - an [ADDR_UNIX] listener unlinks a stale socket file at its path
      before binding, at {!create} and at {!restart_replica}. *)

module Framing : sig
  (** Length-prefixed frames over a byte stream: a 4-byte big-endian body
      length, then a {!Shoalpp_codec.Wire} body [(uint src; bytes
      payload)]. Split out for direct testing. *)

  val frame : src:int -> string -> string
  (** Encode one payload as a complete frame. *)

  type decoder

  val decoder : unit -> decoder

  val feed : decoder -> Bytes.t -> int -> (int * string) list
  (** [feed d chunk len] appends [len] bytes and returns every complete
      [(src, payload)] frame now available, in stream order. Partial frames
      are buffered across calls.
      @raise Shoalpp_codec.Wire.Reader.Malformed on a corrupt frame
      (including bodies over 64 MiB). *)
end

val socket_path : dir:string -> int -> string
(** [dir/replica-i.sock]: replica [i]'s Unix-domain listen path — the one
    definition of the socket naming scheme. *)

val unix_addrs : dir:string -> n:int -> Unix.sockaddr array
(** [ADDR_UNIX (socket_path ~dir i)] for [i < n]. *)

val tcp_addrs : base_port:int -> n:int -> Unix.sockaddr array
(** 127.0.0.1 on [base_port + i] for [i < n]; [base_port = 0] lets the
    kernel pick every port. *)

type 'msg t

val create :
  Backend_realtime.t ->
  addrs:Unix.sockaddr array ->
  ?coalesce_us:float ->
  encode:('msg -> string) ->
  decode:(string -> 'msg option) ->
  unit ->
  'msg t
(** Create listeners for all [Array.length addrs] replicas in this process;
    the socket domain of each comes from its address.
    @raise Unix.Unix_error with [EADDRINUSE] when a fixed TCP port range
    collides with another process — callers retry with a different base. *)

val transport : 'msg t -> 'msg Backend.Transport.t
(** The {!Backend.Transport} view: [send]/[broadcast] enqueue (and
    coalesce), [set_handler] registers the per-replica inbound dispatch,
    [stats] counts frames and declared payload bytes. *)

val addrs : 'msg t -> Unix.sockaddr array
(** Actual listen addresses, resolved after bind (TCP ports requested as
    [0] read back as the kernel's choice). *)

type net_stats = {
  flushes : int;  (** aggregated writes handed to the kernel *)
  coalesced_frames : int;
      (** frames that shared a flush with at least one other frame *)
  reconnects : int;
      (** successful dials that followed a failure or teardown *)
  dial_failures : int;  (** failed dials and mid-stream teardowns *)
}

val net_stats : 'msg t -> net_stats

val crash_replica : 'msg t -> int -> unit
(** Test hook: close replica [i]'s listener and every connection it has
    accepted, as if its process died. Peers' next writes fail and enter
    backoff. *)

val restart_replica : 'msg t -> int -> unit
(** Test hook: re-listen on replica [i]'s original address after
    {!crash_replica}. Peers re-dial lazily once their backoff expires. *)

val shutdown : 'msg t -> unit
(** Close every listener, accepted connection and outbound connection. *)
