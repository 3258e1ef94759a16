module Backend = Shoalpp_backend.Backend
module Rng = Shoalpp_support.Rng

type t = {
  clock : Backend.Clock.t;
  timers : Backend.Timers.t;
  mempool : Mempool.t;
  origin : int;
  mean_interarrival_ms : float;
  tx_size : int;
  rng : Rng.t;
  next_id : int ref;
  stride : int;
  mutable next_at : float;
  mutable generated : int;
  mutable stopped : bool;
  mutable exhausted : bool;
}

(* Open-loop arrivals: the next submission time is [gap] after the
   PREVIOUS SCHEDULED time, not after the (possibly late) firing — a busy
   event loop delays deliveries but never deflates the offered rate
   (coordinated omission). When a firing finds further arrivals already
   overdue it submits the whole burst in place rather than re-queueing one
   timer per arrival, so a loaded loop owes at most one timer dispatch per
   burst. Each transaction is stamped with its due time [next_at], not the
   (late) firing time, so a stalled loop shows up as latency instead of
   hiding inside it. Under a backend whose timers fire exactly on time (the
   simulator) every burst has length one, the two times coincide, and the
   arrival process is unchanged. *)
let submit_one t =
  let id = !(t.next_id) in
  (* Overflow guard: advancing past [max_int - stride] would wrap the id
     space and collide with another lane's ids (stride-sharded spaces stay
     disjoint only while ids grow monotonically). Submit this last
     representable id, then stop the lane instead of wrapping. At any real
     rate this is a day-scale-times-millions horizon, but the invariant is
     "ids never repeat", not "runs are short". *)
  if id > max_int - t.stride then begin
    t.stopped <- true;
    t.exhausted <- true
  end
  else t.next_id := id + t.stride;
  let tx = Transaction.make ~id ~size:t.tx_size ~submitted_at:t.next_at ~origin:t.origin () in
  ignore (Mempool.submit t.mempool tx);
  t.generated <- t.generated + 1

let rec fire t =
  if not t.stopped then begin
    submit_one t;
    let gap = Rng.exponential t.rng t.mean_interarrival_ms in
    t.next_at <- t.next_at +. gap;
    if t.next_at <= t.clock.Backend.Clock.now () then fire t
    else ignore (t.timers.Backend.Timers.schedule_at ~at:t.next_at (fun () -> fire t))
  end

let arm t =
  if not t.stopped then begin
    let gap = Rng.exponential t.rng t.mean_interarrival_ms in
    t.next_at <- t.next_at +. gap;
    ignore (t.timers.Backend.Timers.schedule_at ~at:t.next_at (fun () -> fire t))
  end

let start ~clock ~timers ~mempool ~origin ~rate_tps ?(tx_size = Transaction.default_size)
    ?(seed = 7) ?(next_id = ref 0) ?(stride = 1) () =
  if not (Float.is_finite rate_tps && rate_tps > 0.0) then
    invalid_arg "Client.start: rate must be finite and positive";
  if stride < 1 then invalid_arg "Client.start: stride must be >= 1";
  if !next_id < 0 then invalid_arg "Client.start: next_id must be >= 0";
  let t =
    {
      clock;
      timers;
      mempool;
      origin;
      mean_interarrival_ms = 1000.0 /. rate_tps;
      tx_size;
      rng = Rng.create (seed + (origin * 7919));
      next_id;
      stride;
      next_at = clock.Backend.Clock.now ();
      generated = 0;
      stopped = false;
      exhausted = false;
    }
  in
  arm t;
  t

let stop t = t.stopped <- true
let generated t = t.generated
let exhausted t = t.exhausted
