(* The transport's state machines (per-peer coalescing buffers, reconnect
   backoff, the connection table) run exclusively on the executor's loop
   domain: every entry point is either a poller callback or posted via
   Backend_realtime.post. The floating attribute re-owns the module for
   tools/lint's race pass — overriding the lib/backend/ "shared" default —
   so any future top-level mutable global here stays legal exactly as long
   as this single-domain discipline holds. *)
[@@@shoalpp.domain "main"]

(* Length-prefixed stream-socket transport for the wall-clock executor.

   One implementation for every [SOCK_STREAM] address family: replica i
   listens on [addrs.(i)] — an [ADDR_INET] (TCP) or an [ADDR_UNIX] path
   (Unix-domain sockets) — and frames are a 4-byte big-endian body length,
   then a Wire body carrying (src, payload). Two behaviours a real
   deployment needs and an in-process loopback hides:

   - Per-peer WRITE COALESCING: frames bound for one destination are
     appended to a pending buffer and flushed as a single aggregated write
     when either a byte threshold is reached or a latency budget
     ([coalesce_us]) expires. Small protocol messages (votes,
     certificates) stop paying one syscall each — the real-time analogue
     of the simulator's region-batched broadcast. On TCP, TCP_NODELAY is
     set so the kernel never adds a second (Nagle) coalescing delay on top
     of ours; with [coalesce_us = 0] every frame is written immediately.

   - LAZY RECONNECT with capped exponential backoff: a send to a peer with
     no live connection dials it non-blockingly; a failed dial (or a
     connection torn down mid-stream) drops the peer's queued frames
     (counted), doubles its retry delay up to a cap, and the next send
     after the deadline re-dials. A restarted peer is picked up again
     within one backoff interval and the sender never blocks or dial-storms
     a dead address.

   Everything runs on the executor's single event loop: sends enqueue,
   the select loop flushes on writability and feeds inbound bytes through
   a per-connection Framing.decoder. No protocol handler ever runs inside
   [send]. *)

module Wire = Shoalpp_codec.Wire

module Framing = struct
  let max_body = 1 lsl 26 (* 64 MiB: far above any protocol message *)

  let frame ~src payload =
    let w = Wire.Writer.create () in
    Wire.Writer.uint w src;
    Wire.Writer.bytes w payload;
    let body = Wire.Writer.contents w in
    let n = String.length body in
    let out = Bytes.create (4 + n) in
    Bytes.set_int32_be out 0 (Int32.of_int n);
    Bytes.blit_string body 0 out 4 n;
    Bytes.unsafe_to_string out

  (* Byte backlog with a consumed-prefix offset: frames are decoded in
     place by advancing [start], and the live region is compacted (or the
     buffer grown) at most once per [feed], so decoding stays linear in the
     bytes received no matter how many frames pile up on one connection. *)
  type decoder = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

  let decoder () = { buf = Bytes.create 4096; start = 0; len = 0 }

  let ensure_space d extra =
    let cap = Bytes.length d.buf in
    if d.start + d.len + extra > cap then
      if d.len + extra <= cap then begin
        Bytes.blit d.buf d.start d.buf 0 d.len;
        d.start <- 0
      end
      else begin
        let nb = Bytes.create (max (d.len + extra) (2 * cap)) in
        Bytes.blit d.buf d.start nb 0 d.len;
        d.buf <- nb;
        d.start <- 0
      end

  let feed d chunk len =
    ensure_space d len;
    Bytes.blit chunk 0 d.buf (d.start + d.len) len;
    d.len <- d.len + len;
    let frames = ref [] in
    let progress = ref true in
    while !progress do
      if d.len < 4 then progress := false
      else begin
        let body_len = Int32.to_int (Bytes.get_int32_be d.buf d.start) in
        if body_len < 0 || body_len > max_body then
          raise (Wire.Reader.Malformed "frame length out of range");
        if d.len < 4 + body_len then progress := false
        else begin
          let body = Bytes.sub_string d.buf (d.start + 4) body_len in
          d.start <- d.start + 4 + body_len;
          d.len <- d.len - (4 + body_len);
          let r = Wire.Reader.of_string body in
          let src = Wire.Reader.uint r in
          let payload = Wire.Reader.bytes r in
          Wire.Reader.expect_end r;
          frames := (src, payload) :: !frames
        end
      end
    done;
    if d.len = 0 then d.start <- 0;
    List.rev !frames
end

let socket_path ~dir i = Filename.concat dir (Printf.sprintf "replica-%d.sock" i)
let unix_addrs ~dir ~n = Array.init n (fun i -> Unix.ADDR_UNIX (socket_path ~dir i))

let tcp_addrs ~base_port ~n =
  Array.init n (fun i ->
      Unix.ADDR_INET (Unix.inet_addr_loopback, if base_port = 0 then 0 else base_port + i))

let backoff_base_ms = 10.0
let backoff_cap_ms = 2000.0
let max_out_buffered = 8 * 1024 * 1024
let max_coalesce_bytes = 64 * 1024

(* One live (or connecting) outbound connection. The write queue holds
   aggregated batches with their frame counts, so a teardown can report
   dropped frames accurately; the head batch may be partially written. *)
type conn = {
  c_fd : Unix.file_descr;
  c_q : (string * int) Queue.t;
  mutable c_head_off : int;
  mutable c_buffered : int; (* unwritten bytes: queue + pending buffer *)
  c_pending : Buffer.t; (* frames coalescing toward one aggregated write *)
  mutable c_pending_frames : int;
  mutable c_flush_timer : Backend.timer option;
  mutable c_connected : bool; (* false while connect() is in flight *)
}

type peer = {
  mutable p_conn : conn option;
  mutable p_backoff_ms : float; (* delay charged by the NEXT dial failure *)
  mutable p_retry_at_ms : float; (* no re-dial before this executor instant *)
}

type net_stats = {
  flushes : int; (* aggregated writes handed to the kernel *)
  coalesced_frames : int; (* frames that shared a flush with at least one other *)
  reconnects : int; (* successful dials that followed a failure or teardown *)
  dial_failures : int;
}

type 'msg t = {
  exec : Backend_realtime.t;
  n : int;
  t_addrs : Unix.sockaddr array; (* listen addresses; ports resolved after bind *)
  coalesce_ms : float;
  t_encode : 'msg -> string;
  t_decode : string -> 'msg option;
  handlers : (src:int -> 'msg -> unit) option array;
  peers : peer array;
  listeners : Unix.file_descr option array;
  inbound : Unix.file_descr list ref array; (* accepted conns per listening replica *)
  mutable t_sent : int;
  mutable t_dropped : int;
  mutable t_bytes : float;
  mutable t_flushes : int;
  mutable t_coalesced : int;
  mutable t_reconnects : int;
  mutable t_dial_failures : int;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Inbound side: accept, read, decode, dispatch to the owner's handler. *)

let forget_inbound t ~owner fd =
  Backend_realtime.remove_poller t.exec fd;
  t.inbound.(owner) := List.filter (fun f -> not (Stdlib.( == ) f fd)) !(t.inbound.(owner));
  close_quiet fd

let on_readable t ~owner conn dec buf () =
  match Unix.read conn buf 0 (Bytes.length buf) with
  | 0 -> forget_inbound t ~owner conn
  | len -> (
    match Framing.feed dec buf len with
    | frames ->
      List.iter
        (fun (src, payload) ->
          match t.t_decode payload with
          | Some msg -> (
            match t.handlers.(owner) with Some h -> h ~src msg | None -> ())
          | None -> t.t_dropped <- t.t_dropped + 1)
        frames
    | exception Wire.Reader.Malformed _ ->
      t.t_dropped <- t.t_dropped + 1;
      forget_inbound t ~owner conn)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> forget_inbound t ~owner conn

(* A Unix-domain listener first unlinks whatever a previous run (or a
   crashed incarnation) left at its path; a TCP listener reads its port
   back so a kernel-picked port 0 becomes dialable. *)
let listen_replica t i =
  let addr = t.t_addrs.(i) in
  (match addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     close_quiet fd;
     raise e);
  (match addr with
  | Unix.ADDR_INET _ -> t.t_addrs.(i) <- Unix.getsockname fd
  | Unix.ADDR_UNIX _ -> ());
  Backend_realtime.add_poller t.exec fd (fun () ->
      match Unix.accept fd with
      | conn, _ ->
        Unix.set_nonblock conn;
        t.inbound.(i) := conn :: !(t.inbound.(i));
        let dec = Framing.decoder () in
        let buf = Bytes.create 65536 in
        Backend_realtime.add_poller t.exec conn (on_readable t ~owner:i conn dec buf)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  fd

(* ------------------------------------------------------------------ *)
(* Outbound side: dial, coalesce, flush, back off. *)

let cancel_flush_timer c =
  match c.c_flush_timer with
  | Some tm ->
    Backend.cancel tm;
    c.c_flush_timer <- None
  | None -> ()

(* Tear the connection down and charge its undelivered frames as dropped.
   The peer re-dials on a later send, after its backoff deadline. *)
(* A failed dial or a torn-down stream: count it and hold the peer's next
   dial back by its current delay, doubling the delay up to the cap. *)
let back_off t p =
  t.t_dial_failures <- t.t_dial_failures + 1;
  p.p_retry_at_ms <- Backend_realtime.now_ms t.exec +. p.p_backoff_ms;
  p.p_backoff_ms <- Float.min (2.0 *. p.p_backoff_ms) backoff_cap_ms

(* A dial completed: a peer that had backed off counts as reconnected. *)
let note_connected t p =
  if p.p_backoff_ms > backoff_base_ms then t.t_reconnects <- t.t_reconnects + 1;
  p.p_backoff_ms <- backoff_base_ms;
  p.p_retry_at_ms <- 0.0

let drop_conn t dst c =
  let p = t.peers.(dst) in
  Backend_realtime.remove_wpoller t.exec c.c_fd;
  cancel_flush_timer c;
  close_quiet c.c_fd;
  let lost = ref c.c_pending_frames in
  Queue.iter (fun (_, frames) -> lost := !lost + frames) c.c_q;
  t.t_dropped <- t.t_dropped + !lost;
  p.p_conn <- None;
  back_off t p

let rec pump t dst c =
  if Queue.is_empty c.c_q then Backend_realtime.remove_wpoller t.exec c.c_fd
  else begin
    let s, _ = Queue.peek c.c_q in
    let len = String.length s - c.c_head_off in
    match Unix.write c.c_fd (Bytes.unsafe_of_string s) c.c_head_off len with
    | n ->
      c.c_buffered <- c.c_buffered - n;
      if n = len then begin
        ignore (Queue.pop c.c_q);
        c.c_head_off <- 0;
        pump t dst c
      end
      else begin
        c.c_head_off <- c.c_head_off + n;
        Backend_realtime.add_wpoller t.exec c.c_fd (fun () -> pump t dst c)
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      Backend_realtime.add_wpoller t.exec c.c_fd (fun () -> pump t dst c)
    | exception Unix.Unix_error _ -> drop_conn t dst c
  end

(* Move the coalescing buffer's frames into the write queue as ONE
   aggregated batch and push bytes while the kernel takes them. *)
let flush_pending t dst c =
  cancel_flush_timer c;
  if Buffer.length c.c_pending > 0 then begin
    let batch = Buffer.contents c.c_pending in
    let frames = c.c_pending_frames in
    Buffer.clear c.c_pending;
    c.c_pending_frames <- 0;
    Queue.add (batch, frames) c.c_q;
    t.t_flushes <- t.t_flushes + 1;
    if frames > 1 then t.t_coalesced <- t.t_coalesced + frames
  end;
  if c.c_connected then pump t dst c

let finish_connect t dst c =
  Backend_realtime.remove_wpoller t.exec c.c_fd;
  match Unix.getsockopt_error c.c_fd with
  | None ->
    c.c_connected <- true;
    note_connected t t.peers.(dst);
    flush_pending t dst c
  | Some _ -> drop_conn t dst c

let dial t dst =
  let addr = t.t_addrs.(dst) in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (match addr with
  | Unix.ADDR_INET _ -> (
    try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Unix.ADDR_UNIX _ -> ());
  let mk connected =
    {
      c_fd = fd;
      c_q = Queue.create ();
      c_head_off = 0;
      c_buffered = 0;
      c_pending = Buffer.create 4096;
      c_pending_frames = 0;
      c_flush_timer = None;
      c_connected = connected;
    }
  in
  (* A Unix-domain connect usually completes at once; TCP reports
     EINPROGRESS and finishes on writability. *)
  match Unix.connect fd addr with
  | () ->
    let c = mk true in
    t.peers.(dst).p_conn <- Some c;
    note_connected t t.peers.(dst);
    Some c
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
    let c = mk false in
    t.peers.(dst).p_conn <- Some c;
    Backend_realtime.add_wpoller t.exec fd (fun () -> finish_connect t dst c);
    Some c
  | exception Unix.Unix_error _ ->
    close_quiet fd;
    back_off t t.peers.(dst);
    None

let conn_for t dst =
  let p = t.peers.(dst) in
  match p.p_conn with
  | Some c -> Some c
  | None ->
    if Backend_realtime.now_ms t.exec < p.p_retry_at_ms then None else dial t dst

let send t ~src ~dst ~size msg =
  match conn_for t dst with
  | None -> t.t_dropped <- t.t_dropped + 1
  | Some c ->
    let frame = Framing.frame ~src (t.t_encode msg) in
    if c.c_buffered + String.length frame > max_out_buffered then
      t.t_dropped <- t.t_dropped + 1
    else begin
      Buffer.add_string c.c_pending frame;
      c.c_pending_frames <- c.c_pending_frames + 1;
      c.c_buffered <- c.c_buffered + String.length frame;
      t.t_sent <- t.t_sent + 1;
      t.t_bytes <- t.t_bytes +. float_of_int size;
      if t.coalesce_ms <= 0.0 || Buffer.length c.c_pending >= max_coalesce_bytes then
        flush_pending t dst c
      else if c.c_flush_timer = None then
        c.c_flush_timer <-
          Some
            ((Backend_realtime.timers t.exec).Backend.Timers.schedule ~after:t.coalesce_ms
               (fun () ->
                 c.c_flush_timer <- None;
                 flush_pending t dst c))
    end

(* ------------------------------------------------------------------ *)

let create exec ~addrs ?(coalesce_us = 0.0) ~encode ~decode () =
  let n = Array.length addrs in
  let t =
    {
      exec;
      n;
      t_addrs = Array.copy addrs;
      coalesce_ms = Float.max 0.0 coalesce_us /. 1000.0;
      t_encode = encode;
      t_decode = decode;
      handlers = Array.make n None;
      peers =
        Array.init n (fun _ ->
            { p_conn = None; p_backoff_ms = backoff_base_ms; p_retry_at_ms = 0.0 });
      listeners = Array.make n None;
      inbound = Array.init n (fun _ -> ref []);
      t_sent = 0;
      t_dropped = 0;
      t_bytes = 0.0;
      t_flushes = 0;
      t_coalesced = 0;
      t_reconnects = 0;
      t_dial_failures = 0;
    }
  in
  for i = 0 to n - 1 do
    t.listeners.(i) <- Some (listen_replica t i)
  done;
  t

let addrs t = Array.copy t.t_addrs

let transport t =
  {
    Backend.Transport.n = t.n;
    send = (fun ~src ~dst ~size msg -> send t ~src ~dst ~size msg);
    broadcast =
      (fun ~src ~size ~include_self msg ->
        for dst = 0 to t.n - 1 do
          if include_self || dst <> src then send t ~src ~dst ~size msg
        done);
    set_handler = (fun replica f -> t.handlers.(replica) <- Some f);
    stats =
      (fun () ->
        {
          Backend.Transport.sent = t.t_sent;
          dropped = t.t_dropped;
          partitioned = 0;
          bytes = t.t_bytes;
        });
  }

let net_stats t =
  {
    flushes = t.t_flushes;
    coalesced_frames = t.t_coalesced;
    reconnects = t.t_reconnects;
    dial_failures = t.t_dial_failures;
  }

(* Test hooks: simulate replica [i]'s process dying (its listener and every
   connection it accepted vanish; peers' established connections to it hit
   ECONNRESET/EPIPE on their next write) and coming back on the same
   address. *)

let crash_replica t i =
  (match t.listeners.(i) with
  | Some fd ->
    Backend_realtime.remove_poller t.exec fd;
    close_quiet fd;
    t.listeners.(i) <- None
  | None -> ());
  List.iter
    (fun fd ->
      Backend_realtime.remove_poller t.exec fd;
      close_quiet fd)
    !(t.inbound.(i));
  t.inbound.(i) := []

let restart_replica t i =
  match t.listeners.(i) with
  | Some _ -> ()
  | None -> t.listeners.(i) <- Some (listen_replica t i)

let shutdown t =
  for i = 0 to t.n - 1 do
    crash_replica t i;
    (match t.peers.(i).p_conn with
    | Some c ->
      Backend_realtime.remove_wpoller t.exec c.c_fd;
      cancel_flush_timer c;
      close_quiet c.c_fd;
      t.peers.(i).p_conn <- None
    | None -> ())
  done
