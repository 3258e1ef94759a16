(* Tests for transactions, batches, the mempool and Poisson clients. *)

module Engine = Shoalpp_sim.Engine
module Transaction = Shoalpp_workload.Transaction
module Batch = Shoalpp_workload.Batch
module Mempool = Shoalpp_workload.Mempool
module Client = Shoalpp_workload.Client
module Digest32 = Shoalpp_crypto.Digest32

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let tx ?(id = 0) ?(size = Transaction.default_size) ?(at = 0.0) ?(origin = 0) () =
  Transaction.make ~id ~size ~submitted_at:at ~origin ()

let test_transaction_defaults () =
  let t = tx ~id:7 () in
  checki "default size is the paper's 310B" 310 t.Transaction.size;
  checki "wire size adds header" 318 (Transaction.wire_size t)

let test_batch_digest_deterministic () =
  let txns = [ tx ~id:1 (); tx ~id:2 () ] in
  let a = Batch.make ~txns ~created_at:0.0 in
  let b = Batch.make ~txns ~created_at:99.0 in
  checkb "digest from content only" true (Digest32.equal a.Batch.digest b.Batch.digest);
  let c = Batch.make ~txns:[ tx ~id:2 (); tx ~id:1 () ] ~created_at:0.0 in
  checkb "order-sensitive" false (Digest32.equal a.Batch.digest c.Batch.digest)

let test_batch_sizes () =
  let b = Batch.make ~txns:[ tx ~id:1 (); tx ~id:2 () ] ~created_at:0.0 in
  checki "length" 2 (Batch.length b);
  checki "wire size" (4 + (2 * 318)) (Batch.wire_size b);
  checkb "not empty" false (Batch.is_empty b);
  checkb "empty" true (Batch.is_empty (Batch.empty ~created_at:0.0))

let test_mempool_fifo () =
  let m = Mempool.create () in
  List.iter (fun i -> ignore (Mempool.submit m (tx ~id:i ()))) [ 1; 2; 3; 4; 5 ];
  checki "pending" 5 (Mempool.peek_pending m);
  let pulled = Mempool.pull m ~max:3 in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ]
    (List.map (fun (t : Transaction.t) -> t.Transaction.id) pulled);
  checki "remaining" 2 (Mempool.peek_pending m);
  checki "pull more than available" 2 (List.length (Mempool.pull m ~max:10))

let test_mempool_bound () =
  let m = Mempool.create ~max_pending:2 () in
  checkb "accept 1" true (Mempool.submit m (tx ~id:1 ()));
  checkb "accept 2" true (Mempool.submit m (tx ~id:2 ()));
  checkb "reject 3" false (Mempool.submit m (tx ~id:3 ()));
  checki "rejected count" 1 (Mempool.rejected m);
  checki "submitted count" 2 (Mempool.submitted m)

let test_mempool_oldest_waiting () =
  let m = Mempool.create () in
  Alcotest.(check (option (float 1e-9))) "empty" None (Mempool.oldest_waiting m);
  ignore (Mempool.submit m (tx ~id:1 ~at:42.0 ()));
  ignore (Mempool.submit m (tx ~id:2 ~at:50.0 ()));
  Alcotest.(check (option (float 1e-9))) "head arrival" (Some 42.0) (Mempool.oldest_waiting m)

let test_client_rate () =
  let engine = Engine.create () in
  let m = Mempool.create () in
  let c = Client.start ~clock:(Shoalpp_backend.Backend_sim.clock engine)
      ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~mempool:m ~origin:0 ~rate_tps:100.0 ~seed:5 () in
  Engine.run ~until:60_000.0 engine;
  Client.stop c;
  let got = Client.generated c in
  (* 100 tps for 60 s => ~6000, Poisson sd ~77. *)
  checkb (Printf.sprintf "poisson rate (got %d)" got) true (got > 5600 && got < 6400);
  checki "all reached mempool" got (Mempool.submitted m)

let test_client_unique_ids_across_replicas () =
  let engine = Engine.create () in
  let next_id = ref 0 in
  let pools = List.init 3 (fun _ -> Mempool.create ()) in
  let _clients =
    List.mapi
      (fun i m -> Client.start ~clock:(Shoalpp_backend.Backend_sim.clock engine)
      ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~mempool:m ~origin:i ~rate_tps:50.0 ~seed:1 ~next_id ())
      pools
  in
  Engine.run ~until:5_000.0 engine;
  let all =
    List.concat_map (fun m -> List.map (fun (t : Transaction.t) -> t.Transaction.id) (Mempool.pull m ~max:max_int)) pools
  in
  checki "globally unique ids" (List.length all) (List.length (List.sort_uniq compare all))

let test_client_stop () =
  let engine = Engine.create () in
  let m = Mempool.create () in
  let c = Client.start ~clock:(Shoalpp_backend.Backend_sim.clock engine)
      ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~mempool:m ~origin:0 ~rate_tps:1000.0 ~seed:2 () in
  Engine.run ~until:1_000.0 engine;
  Client.stop c;
  let at_stop = Client.generated c in
  Engine.run ~until:5_000.0 engine;
  checki "no more after stop" at_stop (Client.generated c)

let test_client_timestamps_are_submission_times () =
  let engine = Engine.create () in
  let m = Mempool.create () in
  ignore (Client.start ~clock:(Shoalpp_backend.Backend_sim.clock engine)
      ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~mempool:m ~origin:3 ~rate_tps:200.0 ~seed:9 ());
  Engine.run ~until:2_000.0 engine;
  List.iter
    (fun (t : Transaction.t) ->
      checkb "origin tagged" true (t.Transaction.origin = 3);
      checkb "timestamp in run" true (t.Transaction.submitted_at > 0.0 && t.Transaction.submitted_at <= 2_000.0))
    (Mempool.pull m ~max:max_int)

(* A stalled loop: the fake timers fire every callback [lag] ms after it
   was due, so each firing finds a burst of arrivals overdue. Every
   transaction of a burst must carry its own due time — strictly
   increasing stamps, none equal to the late firing time. *)
let test_client_stamps_due_time_under_late_timers () =
  let module Backend = Shoalpp_backend.Backend in
  let lag = 50.0 in
  let now = ref 0.0 in
  let pending = ref [] in
  let scheduled = ref [] in
  let clock = { Backend.Clock.now = (fun () -> !now); monotonic = (fun () -> !now) } in
  let handle = { Backend.cancel = (fun () -> ()); is_pending = (fun () -> false) } in
  let schedule_at ~at f =
    scheduled := at :: !scheduled;
    pending := (at, f) :: !pending;
    handle
  in
  let timers =
    { Backend.Timers.schedule = (fun ~after f -> schedule_at ~at:(!now +. after) f); schedule_at }
  in
  let m = Mempool.create () in
  ignore (Client.start ~clock ~timers ~mempool:m ~origin:0 ~rate_tps:1000.0 ~seed:5 ());
  let firings = ref [] in
  for _ = 1 to 20 do
    match !pending with
    | [ (at, f) ] ->
      pending := [];
      now := at +. lag;
      firings := !now :: !firings;
      f ()
    | _ -> Alcotest.fail "expected exactly one armed timer"
  done;
  let stamps =
    List.map (fun (t : Transaction.t) -> t.Transaction.submitted_at) (Mempool.pull m ~max:max_int)
  in
  checkb "bursts happened" true (List.length stamps > 2 * List.length !firings);
  let rec increasing = function a :: (b :: _ as rest) -> a < b && increasing rest | _ -> true in
  checkb "stamps strictly increasing" true (increasing stamps);
  checkb "no stamp is a late firing time" true
    (List.for_all (fun s -> not (List.exists (Float.equal s) !firings)) stamps);
  Alcotest.(check (float 0.0)) "first stamp is the first due time"
    (List.nth !scheduled (List.length !scheduled - 1))
    (List.hd stamps)

(* The open-loop guards: a rate must be finite and positive, shard
   parameters must describe a real lane, and the id space never wraps —
   a lane whose next id would overflow submits the last representable id
   and stops itself instead of colliding with another lane's stride. *)
let test_client_rejects_bad_parameters () =
  let engine = Engine.create () in
  let clock = Shoalpp_backend.Backend_sim.clock engine in
  let timers = Shoalpp_backend.Backend_sim.timers engine in
  let m = Mempool.create () in
  let expect_invalid label f =
    match f () with
    | (_ : Client.t) -> Alcotest.fail (label ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (label, rate) ->
      expect_invalid label (fun () ->
          Client.start ~clock ~timers ~mempool:m ~origin:0 ~rate_tps:rate ()))
    [
      ("zero rate", 0.0);
      ("negative rate", -5.0);
      ("nan rate", Float.nan);
      ("infinite rate", Float.infinity);
    ];
  expect_invalid "zero stride" (fun () ->
      Client.start ~clock ~timers ~mempool:m ~origin:0 ~rate_tps:10.0 ~stride:0 ());
  expect_invalid "negative stride" (fun () ->
      Client.start ~clock ~timers ~mempool:m ~origin:0 ~rate_tps:10.0 ~stride:(-3) ());
  expect_invalid "negative next_id" (fun () ->
      Client.start ~clock ~timers ~mempool:m ~origin:0 ~rate_tps:10.0 ~next_id:(ref (-1)) ())

let test_client_id_overflow_stops_lane () =
  let engine = Engine.create () in
  let m = Mempool.create () in
  let stride = 4 in
  (* Two arrivals from exhaustion: the guard must submit the last
     representable id of this lane, then stop — never wrap. *)
  let start = max_int - stride - 1 in
  let c =
    Client.start
      ~clock:(Shoalpp_backend.Backend_sim.clock engine)
      ~timers:(Shoalpp_backend.Backend_sim.timers engine)
      ~mempool:m ~origin:0 ~rate_tps:1000.0 ~seed:3 ~next_id:(ref start) ~stride ()
  in
  Engine.run ~until:60_000.0 engine;
  checkb "lane stopped itself" true (Client.exhausted c);
  let ids = List.map (fun (t : Transaction.t) -> t.Transaction.id) (Mempool.pull m ~max:max_int) in
  checki "exactly the representable ids" 2 (List.length ids);
  Alcotest.(check (list int)) "last id submitted, none wrapped" [ start; start + stride ] ids;
  checkb "no negative (wrapped) ids" true (List.for_all (fun id -> id >= 0) ids)

let suite =
  [
    ( "workload",
      [
        Alcotest.test_case "transaction defaults" `Quick test_transaction_defaults;
        Alcotest.test_case "batch digest deterministic" `Quick test_batch_digest_deterministic;
        Alcotest.test_case "batch sizes" `Quick test_batch_sizes;
        Alcotest.test_case "mempool fifo" `Quick test_mempool_fifo;
        Alcotest.test_case "mempool bound" `Quick test_mempool_bound;
        Alcotest.test_case "mempool oldest waiting" `Quick test_mempool_oldest_waiting;
        Alcotest.test_case "client poisson rate" `Slow test_client_rate;
        Alcotest.test_case "client unique ids" `Quick test_client_unique_ids_across_replicas;
        Alcotest.test_case "client stop" `Quick test_client_stop;
        Alcotest.test_case "client timestamps" `Quick test_client_timestamps_are_submission_times;
        Alcotest.test_case "client stamps due time under late timers" `Quick
          test_client_stamps_due_time_under_late_timers;
        Alcotest.test_case "client rejects bad parameters" `Quick test_client_rejects_bad_parameters;
        Alcotest.test_case "client id overflow stops lane" `Quick test_client_id_overflow_stops_lane;
      ] );
  ]
