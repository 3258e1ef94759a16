(* Spans recorded around the calls the benchmark makes into each layer.

   The traced run hands the replicas a delegating [Backend.t] whose closures
   open a span around every handler call (one span kind per message kind),
   every send/broadcast, and every timer callback — replica timers and
   client timers are separate kinds. Nothing inside lib/ is instrumented.
   The wrapping is pure indirection: each call maps 1:1 onto the wrapped
   one, in the same order, so a traced simulation orders exactly the same
   segments as an untraced one.

   Aggregates (count and self time per kind, and the time covered by
   top-level spans) are kept for every span; the first [raw_cap] spans
   are also kept raw, in memory, and written out by [write_spans] when the
   episode ends. Self time is a span's duration minus the part of it that
   its child spans cover. *)

module Backend = Shoalpp_backend.Backend
module Types = Shoalpp_dag.Types
module Replica = Shoalpp_core.Replica

let message_kinds =
  [|
    "proposal";
    "vote";
    "certificate";
    "fetch_request";
    "fetch_response";
    "checkpoint_vote";
    "sync_request";
    "sync_response";
  |]

let kind_of_message : Types.message -> int = function
  | Types.Proposal _ -> 0
  | Types.Vote _ -> 1
  | Types.Certificate _ -> 2
  | Types.Fetch_request _ -> 3
  | Types.Fetch_response _ -> 4
  | Types.Checkpoint_vote _ -> 5
  | Types.Sync_request _ -> 6
  | Types.Sync_response _ -> 7

let replica_timer = 8
let client_timer = 9
let send = 10
let num_kinds = 11

let kind_name k =
  if k < Array.length message_kinds then "deliver." ^ message_kinds.(k)
  else if k = replica_timer then "replica_timer"
  else if k = client_timer then "client_timer"
  else "send"

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let max_depth = 64

(* Raw span record: id, kind, parent id (-1 at top level), start, stop. *)
let raw_fields = 5

type t = {
  count : int array;
  self_ns : int array;
  mutable top_ns : int;  (** time covered by top-level spans *)
  st_kind : int array;
  st_id : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  mutable next_id : int;
  raw : int array;
  raw_cap : int;
  mutable raw_len : int;
  (* Deterministic envelope sample for the replay stage: every
     [sample_every]-th delivery of each kind, at most [sample_cap] each. *)
  delivered : int array;
  sample : Replica.envelope list array;
  sample_len : int array;
}

let sample_every = 7
let sample_cap = 96

let create ?(raw_cap = 200_000) () =
  {
    count = Array.make num_kinds 0;
    self_ns = Array.make num_kinds 0;
    top_ns = 0;
    st_kind = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    raw = Array.make (raw_cap * raw_fields) 0;
    raw_cap;
    raw_len = 0;
    delivered = Array.make (Array.length message_kinds) 0;
    sample = Array.make (Array.length message_kinds) [];
    sample_len = Array.make (Array.length message_kinds) 0;
  }

let close t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let kind = t.st_kind.(d) in
  let dur = stop - t.st_start.(d) in
  t.count.(kind) <- t.count.(kind) + 1;
  t.self_ns.(kind) <- t.self_ns.(kind) + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur else t.top_ns <- t.top_ns + dur;
  if t.raw_len < t.raw_cap then begin
    let o = t.raw_len * raw_fields in
    t.raw.(o) <- t.st_id.(d);
    t.raw.(o + 1) <- kind;
    t.raw.(o + 2) <- (if d > 0 then t.st_id.(d - 1) else -1);
    t.raw.(o + 3) <- t.st_start.(d);
    t.raw.(o + 4) <- stop;
    t.raw_len <- t.raw_len + 1
  end

let span t kind f =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Tracer.span: spans nested too deep";
  t.st_kind.(d) <- kind;
  t.st_id.(d) <- t.next_id;
  t.st_child.(d) <- 0;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1;
  t.st_start.(d) <- now_ns ();
  match f () with
  | () -> close t
  | exception e ->
    close t;
    raise e

let capture t kind env =
  let seen = t.delivered.(kind) in
  t.delivered.(kind) <- seen + 1;
  if seen mod sample_every = 0 && t.sample_len.(kind) < sample_cap then begin
    t.sample.(kind) <- env :: t.sample.(kind);
    t.sample_len.(kind) <- t.sample_len.(kind) + 1
  end

let timers t kind (tm : Backend.Timers.t) =
  {
    Backend.Timers.schedule = (fun ~after f -> tm.Backend.Timers.schedule ~after (fun () -> span t kind f));
    schedule_at = (fun ~at f -> tm.Backend.Timers.schedule_at ~at (fun () -> span t kind f));
  }

let transport t (tr : Replica.envelope Backend.Transport.t) =
  {
    tr with
    Backend.Transport.send =
      (fun ~src ~dst ~size msg ->
        span t send (fun () -> tr.Backend.Transport.send ~src ~dst ~size msg));
    broadcast =
      (fun ~src ~size ~include_self msg ->
        span t send (fun () -> tr.Backend.Transport.broadcast ~src ~size ~include_self msg));
    set_handler =
      (fun replica h ->
        tr.Backend.Transport.set_handler replica (fun ~src env ->
            let kind = kind_of_message env.Replica.payload in
            capture t kind env;
            span t kind (fun () -> h ~src env)));
  }

(* The delegating backend handed to the replicas. *)
let backend t (b : Replica.envelope Backend.t) =
  {
    b with
    Backend.timers = timers t replica_timer b.Backend.timers;
    transport = transport t b.Backend.transport;
    control = Option.map (transport t) b.Backend.control;
  }

let sample t kind = List.rev t.sample.(kind)
let spans t = Array.fold_left ( + ) 0 t.count

(* Cost of one span around an empty call, recording it raw, measured on a
   fresh recorder so the run's aggregates are untouched. *)
let span_cost_ns () =
  let k = 100_000 in
  let t = create ~raw_cap:k () in
  let t0 = now_ns () in
  for i = 1 to k do
    span t send (fun () -> ignore (Sys.opaque_identity i))
  done;
  float_of_int (now_ns () - t0) /. float_of_int k

let seconds ns = float_of_int ns /. 1e9

let write_spans t path =
  let oc = open_out path in
  output_string oc "id\tkind\tparent\tstart_ns\tstop_ns\n";
  for i = 0 to t.raw_len - 1 do
    let o = i * raw_fields in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" t.raw.(o)
      (kind_name t.raw.(o + 1))
      t.raw.(o + 2) t.raw.(o + 3) t.raw.(o + 4)
  done;
  close_out oc
