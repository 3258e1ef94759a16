module Heap = Shoalpp_support.Heap

(* [action] is written (cancelled) from posting domains and read by the
   loop; both under [mu] — see the guarded_by declarations on [t]. *)
type rt_timer = {
  at : float;
  seq : int;
  mutable action : (unit -> unit) option; [@shoalpp.guarded_by "mu"]
}

let cmp a b =
  if a.at < b.at then -1 else if a.at > b.at then 1 else compare a.seq b.seq

(* Concurrency map (machine-checked by tools/lint lock-discipline):
   [heap]/[next_seq]/[mono] are guarded by [mu] — any domain may post or
   cancel a timer. [fired], the poller tables and [loop_domain] belong to
   the loop-owner domain only (docs/CONCURRENCY.md effect-confinement map)
   and are deliberately *not* guarded; the Atomics carry every remaining
   cross-domain bit. *)
type t = {
  mu : Mutex.t;
  heap : rt_timer Heap.t; [@shoalpp.guarded_by "mu"]
  mutable next_seq : int; [@shoalpp.guarded_by "mu"]
  mutable fired : int;
  origin : float; (* Unix.gettimeofday at create, seconds *)
  mutable mono : float; [@shoalpp.guarded_by "mu"] (* high-water clock reading, ms *)
  stopping : bool Atomic.t;
  running : bool Atomic.t;
  max_tick_ms : float;
  pollers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  wpollers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  (* Cross-domain wakeup: a byte written here makes a sleeping [select]
     return, so a timer armed from another domain is noticed immediately
     rather than at the next tick. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  owner : int Atomic.t; (* Domain.id running the loop; -1 when idle *)
  sleeping : bool Atomic.t; (* loop is (about to be) blocked in select *)
  mutable loop_domain : unit Domain.t option; (* spawned by run_in_domain *)
}

(* A write to a peer that died arrives as EPIPE only if SIGPIPE is ignored;
   the default disposition would kill the whole process the first time a
   transport writes into a reset connection. Ignored once, process-wide, by
   the first executor — every realtime I/O path (stream sockets, admin) relies on
   seeing the errno instead. The once-guard is an [Atomic.exchange], not a
   [lazy]: forcing a shared lazy from two domains at once is a race (one
   domain can observe the thunk mid-update and raise [Lazy.Undefined]),
   whereas the exchange hands exactly one caller the [false]. *)
let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let create ?(max_tick_ms = 50.0) ?origin_of () =
  ignore_sigpipe ();
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      mu = Mutex.create ();
      heap = Heap.create ~cmp;
      next_seq = 0;
      fired = 0;
      origin =
        (match origin_of with Some o -> o.origin | None -> Unix.gettimeofday ());
      mono = 0.0;
      stopping = Atomic.make false;
      running = Atomic.make false;
      max_tick_ms;
      pollers = Hashtbl.create 8;
      wpollers = Hashtbl.create 8;
      wake_r;
      wake_w;
      owner = Atomic.make (-1);
      sleeping = Atomic.make false;
      loop_domain = None;
    }
  in
  (* Drain whatever accumulated; the wakeup's only job is ending a sleep. *)
  let scratch = Bytes.create 64 in
  Hashtbl.replace t.pollers wake_r (fun () ->
      let rec drain () =
        match Unix.read wake_r scratch 0 (Bytes.length scratch) with
        | n when n = Bytes.length scratch -> drain ()
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      in
      drain ());
  t

(* Poke the wakeup pipe; a full pipe already guarantees a wakeup. *)
let wake_write t =
  let b = Bytes.make 1 '!' in
  match Unix.write t.wake_w b 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> ()

(* Only pay the pipe-write syscall when the loop is actually (about to be)
   blocked: a busy loop re-reads its horizon every iteration anyway. The
   flag is raised BEFORE the loop reads the heap for its next deadline, so
   a poster that misses the flag is guaranteed to have its timer seen by
   that read, and a poster that sees it wakes the select — no lost-wakeup
   window. *)
let wake t = if Atomic.get t.sleeping then wake_write t

let with_mu t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception e ->
    Mutex.unlock t.mu;
    raise e

(* Wall time since the origin, clamped so a stepped system clock can never
   make readings go backwards. *)
let now_ms t =
  let w = (Unix.gettimeofday () -. t.origin) *. 1000.0 in
  with_mu t (fun () ->
      if w > t.mono then t.mono <- w;
      t.mono)

let clock t =
  let now () = now_ms t in
  { Backend.Clock.now; monotonic = now }

let schedule_abs t ~at f =
  let tm =
    with_mu t (fun () ->
        let tm = { at; seq = t.next_seq; action = Some f } in
        t.next_seq <- t.next_seq + 1;
        Heap.add t.heap tm;
        tm)
  in
  (* If another domain's loop is (possibly) asleep in select, poke it so the
     new timer's deadline is re-read. Same-domain schedules need no wake: the
     loop recomputes its horizon before every sleep. *)
  let owner = Atomic.get t.owner in
  if owner <> -1 && owner <> (Domain.self () :> int) then wake t;
  {
    Backend.cancel = (fun () -> with_mu t (fun () -> tm.action <- None));
    is_pending = (fun () -> with_mu t (fun () -> tm.action <> None));
  }

let timers t =
  {
    Backend.Timers.schedule =
      (fun ~after f ->
        let after = if after > 0.0 then after else 0.0 in
        schedule_abs t ~at:(now_ms t +. after) f);
    schedule_at = (fun ~at f -> schedule_abs t ~at f);
  }

let backend t transport =
  (* Realtime executors carry control traffic in-band: the OS scheduler,
     not a seeded RNG, owns timing, so sharing the data sockets cannot
     perturb determinism. *)
  { Backend.clock = clock t; timers = timers t; transport; control = None }
let events_fired t = t.fired
let pending_timers t = with_mu t (fun () -> Heap.length t.heap)
let add_poller t fd f = Hashtbl.replace t.pollers fd f
let remove_poller t fd = Hashtbl.remove t.pollers fd
let add_wpoller t fd f = Hashtbl.replace t.wpollers fd f
let remove_wpoller t fd = Hashtbl.remove t.wpollers fd

let stop t =
  Atomic.set t.stopping true;
  (* Unconditional write: promptness matters more than one syscall here. *)
  wake_write t

(* Run [f] on the executor's loop. Safe from any domain: the heap insert is
   mutex-protected and [schedule_abs] wakes a foreign sleeping loop. *)
let post t f = ignore (schedule_abs t ~at:0.0 f)

(* Both called under the mutex. Cancelled timers are dropped lazily as they
   surface at the heap root. [limit] bounds one batch: a loop that has
   fallen behind its inflow must still surface to check its deadline and
   stop flag between batches rather than chew the whole backlog at once. *)
let rec pop_due t ~now ~limit acc =
  if limit <= 0 then List.rev acc
  else
    match Heap.peek t.heap with
    | Some tm when tm.action = None ->
      ignore (Heap.pop t.heap);
      pop_due t ~now ~limit acc
    | Some tm when tm.at <= now ->
      ignore (Heap.pop t.heap);
      pop_due t ~now ~limit:(limit - 1) (tm :: acc)
    | _ -> List.rev acc
[@@shoalpp.requires_lock "mu"]

let rec next_deadline t =
  match Heap.peek t.heap with
  | Some tm when tm.action = None ->
    ignore (Heap.pop t.heap);
    next_deadline t
  | Some tm -> Some tm.at
  | None -> None
[@@shoalpp.requires_lock "mu"]

(* Fire each due timer, taking its action out atomically so a concurrent
   cancel can never race the invocation. If a callback raises, the popped
   but unfired tail goes back on the heap before the exception propagates —
   those timers stay pending rather than being silently lost. *)
let fire_due t due =
  let rec go = function
    | [] -> ()
    | tm :: rest ->
      let f_opt =
        with_mu t (fun () ->
            let a = tm.action in
            tm.action <- None;
            a)
      in
      (match f_opt with
      | Some f -> (
        t.fired <- t.fired + 1;
        try f ()
        with e ->
          with_mu t (fun () -> List.iter (fun tm -> Heap.add t.heap tm) rest);
          raise e)
      | None -> ());
      go rest
  in
  go due

let run_for t ~duration_ms =
  if not (Atomic.compare_and_set t.running false true) then
    invalid_arg "Backend_realtime.run_for: already running";
  Atomic.set t.stopping false;
  Atomic.set t.owner (Domain.self () :> int);
  let deadline = now_ms t +. duration_ms in
  let finish () =
    Atomic.set t.sleeping false;
    Atomic.set t.owner (-1);
    Atomic.set t.running false
  in
  (try
     while (not (Atomic.get t.stopping)) && now_ms t < deadline do
       (* Drain due timers in rounds: a firing commonly arms new work that
          is itself already due (a zero-delay post, a Poisson chain whose
          next arrival is in the past), and paying one select syscall per
          firing would cap the event rate at the loop's iteration rate.
          Bounded in rounds AND time — at saturation every round refills
          with freshly posted work, so an unbounded drain would blow
          through the run deadline and starve the socket pollers. *)
       let slice_end = Float.min deadline (now_ms t +. t.max_tick_ms) in
       let fired_any = ref false in
       let rec drain rounds =
         let now = now_ms t in
         let due = with_mu t (fun () -> pop_due t ~now ~limit:1024 []) in
         if due <> [] then begin
           fired_any := true;
           fire_due t due;
           if rounds > 1 && now_ms t < slice_end then drain (rounds - 1)
         end
       in
       drain 64;
       (* Sleep until the next timer (bounded by the tick), or just poll the
          sockets when this iteration did fire something. The sleeping flag
          goes up BEFORE the horizon is read: a foreign domain's timer
          armed after the read sees the flag and wakes the select, one
          armed before is already in the horizon. *)
       Atomic.set t.sleeping true;
       let gap_ms =
         if !fired_any then 0.0
         else begin
           let now = now_ms t in
           let horizon =
             match with_mu t (fun () -> next_deadline t) with
             | Some at -> at -. now
             | None -> t.max_tick_ms
           in
           Float.max 0.0 (Float.min (Float.min horizon t.max_tick_ms) (deadline -. now))
         end
       in
       let rfds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.pollers [] in
       let wfds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.wpollers [] in
       (if rfds = [] && wfds = [] then begin
          if gap_ms > 0.0 then Unix.sleepf (gap_ms /. 1000.0)
        end
        else begin
          match Unix.select rfds wfds [] (gap_ms /. 1000.0) with
          | readable, writable, _ ->
            Atomic.set t.sleeping false;
            List.iter
              (fun fd ->
                match Hashtbl.find_opt t.pollers fd with Some f -> f () | None -> ())
              readable;
            List.iter
              (fun fd ->
                match Hashtbl.find_opt t.wpollers fd with Some f -> f () | None -> ())
              writable
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end);
       Atomic.set t.sleeping false
     done
   with e ->
     finish ();
     raise e);
  finish ()

let run_in_domain t =
  if t.loop_domain <> None then
    invalid_arg "Backend_realtime.run_in_domain: domain already running";
  t.loop_domain <- Some (Domain.spawn (fun () -> run_for t ~duration_ms:Float.infinity))

let stop_and_join t =
  match t.loop_domain with
  | None -> stop t
  | Some d ->
    stop t;
    Domain.join d;
    t.loop_domain <- None

(* In-process transport: delivery is a zero-(or fixed-)delay timer, so a
   handler never runs inside [send] and per-sender FIFO order follows from
   the (due-time, scheduling-order) timer order. *)
let loopback t ~n ?(delay_ms = 0.0) () =
  let handlers = Array.make n None in
  let sent = ref 0 in
  let bytes = ref 0.0 in
  let timers = timers t in
  let deliver ~src ~dst msg =
    match handlers.(dst) with Some h -> h ~src msg | None -> ()
  in
  let post ~src ~dst ~size msg =
    incr sent;
    bytes := !bytes +. float_of_int size;
    ignore (timers.Backend.Timers.schedule ~after:delay_ms (fun () -> deliver ~src ~dst msg))
  in
  {
    Backend.Transport.n;
    send = (fun ~src ~dst ~size msg -> post ~src ~dst ~size msg);
    broadcast =
      (fun ~src ~size ~include_self msg ->
        for dst = 0 to n - 1 do
          if include_self || dst <> src then post ~src ~dst ~size msg
        done);
    set_handler = (fun replica f -> handlers.(replica) <- Some f);
    stats =
      (fun () ->
        { Backend.Transport.sent = !sent; dropped = 0; partitioned = 0; bytes = !bytes });
  }

(* Per-link delay shim: emulate a geography over any transport by holding
   each message on a sender-side timer for the link's one-way delay before
   handing it to the inner transport. Constant per-(src,dst) delays plus
   the (due-time, scheduling-order) timer order preserve per-link FIFO, so
   wrapping cannot reorder a stream — it only shifts it in time. Counters
   are the inner transport's: a delayed message is charged when it is
   actually handed over. *)
let delayed t ~delay_ms (inner : 'msg Backend.Transport.t) =
  let timers = timers t in
  let send ~src ~dst ~size msg =
    let d = delay_ms ~src ~dst in
    if d <= 0.0 then inner.Backend.Transport.send ~src ~dst ~size msg
    else
      ignore
        (timers.Backend.Timers.schedule ~after:d (fun () ->
             inner.Backend.Transport.send ~src ~dst ~size msg))
  in
  {
    inner with
    Backend.Transport.send;
    broadcast =
      (fun ~src ~size ~include_self msg ->
        for dst = 0 to inner.Backend.Transport.n - 1 do
          if include_self || dst <> src then send ~src ~dst ~size msg
        done);
  }
