(* Tests for the stream-socket transport and its integration into the
   real-time node. Every transport-level case runs over both address
   families — TCP ([ADDR_INET]) and Unix-domain sockets ([ADDR_UNIX]) —
   since both are the same code path:

   - framing survives arbitrary segmentation: a multi-megabyte frame that
     cannot clear the socket buffer in one write arrives intact and in
     order behind the small frames sent before it;
   - write coalescing: frames under the byte threshold flush when the
     latency budget expires (without the timer they would sit forever),
     and a burst past 64 KiB flushes on the threshold long before a large
     budget could;
   - crash + reconnect: a dead peer's writes drop and back off rather
     than blocking or killing the process, and a restarted peer is
     re-adopted with the drop/ dial-failure / reconnect counters telling
     the story;
   - the acceptance gate: a 4-replica cluster run over TCP commits the
     same anchor sequence as the UDS and loopback runs of the same seed,
     and an n=10 run under the paper's gcp10 geography shim passes the
     safety audit. *)

module Backend = Shoalpp_backend.Backend
module Realtime = Shoalpp_backend.Backend_realtime
module Stream = Shoalpp_backend.Stream_transport
module Node = Shoalpp_runtime.Node
module Config = Shoalpp_core.Config
module Committee = Shoalpp_dag.Committee
module Topology = Shoalpp_sim.Topology

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let families = [ `Tcp; `Uds ]
let family_name = function `Tcp -> "tcp" | `Uds -> "uds"

let remove_dir dir =
  match Sys.readdir dir with
  | entries ->
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) entries;
    (try Sys.rmdir dir with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let dirs_made = ref 0

(* Listen addresses for [n] replicas: kernel-picked TCP ports, or socket
   paths in a fresh directory. The returned thunk removes the directory. *)
let fresh_addrs ~n = function
  | `Tcp -> (Stream.tcp_addrs ~base_port:0 ~n, ignore)
  | `Uds ->
    incr dirs_made;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "shoalpp-stream-test-%d-%d" (Unix.getpid ()) !dirs_made)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
    (Stream.unix_addrs ~dir ~n, fun () -> remove_dir dir)

(* A raw string-message transport: identity codec, per-replica inbox.
   [close] shuts the transport down and removes its socket files. *)
let make ?coalesce_us ~n family exec =
  let addrs, cleanup = fresh_addrs ~n family in
  let h = Stream.create exec ~addrs ?coalesce_us ~encode:Fun.id ~decode:Option.some () in
  let inboxes = Array.init n (fun _ -> ref []) in
  let tr = Stream.transport h in
  for r = 0 to n - 1 do
    tr.Backend.Transport.set_handler r (fun ~src msg ->
        inboxes.(r) := (src, msg) :: !(inboxes.(r)))
  done;
  let close () =
    Stream.shutdown h;
    cleanup ()
  in
  (h, tr, (fun r -> List.rev !(inboxes.(r))), close)

(* Run [body] once per address family, prefixing its check labels. *)
let over_families body =
  List.iter
    (fun family ->
      let name = family_name family in
      body family (fun label -> name ^ ": " ^ label))
    families

let send tr ~src ~dst msg =
  tr.Backend.Transport.send ~src ~dst ~size:(String.length msg) msg

let test_delivery_and_partial_frames () =
  over_families (fun family l ->
      let exec = Realtime.create () in
      let _, tr, inbox, close = make ~n:3 family exec in
      (* Small frames first, then one too large for a single write(2) to
         clear, then a trailer: stream order must survive the partial
         writes. *)
      send tr ~src:0 ~dst:1 "alpha";
      send tr ~src:2 ~dst:1 "beta";
      let big = String.init (3 * 1024 * 1024) (fun i -> Char.chr (i land 0xff)) in
      send tr ~src:0 ~dst:1 big;
      send tr ~src:0 ~dst:1 "trailer";
      tr.Backend.Transport.broadcast ~src:1 ~size:4 ~include_self:false "bcast";
      Realtime.run_for exec ~duration_ms:500.0;
      let at1 = inbox 1 in
      checkb (l "replica 1 got all four frames") true (List.length at1 = 4);
      Alcotest.(check (list (pair int string)))
        (l "per-sender order with the big frame intact")
        [ (0, "alpha"); (0, big); (0, "trailer") ]
        (List.filter (fun (src, _) -> src = 0) at1);
      checkb (l "cross-sender frame arrived") true (List.mem (2, "beta") at1);
      Alcotest.(check (list (pair int string))) (l "broadcast reached 0") [ (1, "bcast") ] (inbox 0);
      Alcotest.(check (list (pair int string))) (l "broadcast reached 2") [ (1, "bcast") ] (inbox 2);
      let stats = tr.Backend.Transport.stats () in
      checki (l "six sends counted (broadcast is per destination)") 6 stats.Backend.Transport.sent;
      checki (l "nothing dropped") 0 stats.Backend.Transport.dropped;
      close ())

let test_coalescing_flush_on_budget () =
  over_families (fun family l ->
      let exec = Realtime.create () in
      (* 40 ms budget, frames far under the 64 KiB threshold: only the budget
         timer can flush them — delivery itself proves the timer fired. *)
      let h, tr, inbox, close = make ~coalesce_us:40_000.0 ~n:2 family exec in
      send tr ~src:0 ~dst:1 "one";
      send tr ~src:0 ~dst:1 "two";
      send tr ~src:0 ~dst:1 "three";
      Realtime.run_for exec ~duration_ms:400.0;
      Alcotest.(check (list (pair int string)))
        (l "all frames delivered in order after the budget expired")
        [ (0, "one"); (0, "two"); (0, "three") ]
        (inbox 1);
      let ns = Stream.net_stats h in
      checki (l "one aggregated flush") 1 ns.Stream.flushes;
      checki (l "all three frames shared it") 3 ns.Stream.coalesced_frames;
      close ())

let test_coalescing_flush_on_threshold () =
  over_families (fun family l ->
      let exec = Realtime.create () in
      (* A budget far beyond the test horizon: anything delivered got there
         via the 64 KiB threshold flush. *)
      let h, tr, inbox, close = make ~coalesce_us:60_000_000.0 ~n:2 family exec in
      let frame = String.make 1024 'z' in
      for _ = 1 to 80 do
        send tr ~src:0 ~dst:1 frame
      done;
      Realtime.run_for exec ~duration_ms:300.0;
      let got = List.length (inbox 1) in
      checkb (l (Printf.sprintf "threshold flushed the bulk (got %d)" got)) true (got >= 60);
      List.iter
        (fun (src, msg) -> checkb (l "frames intact") true (src = 0 && String.equal msg frame))
        (inbox 1);
      let ns = Stream.net_stats h in
      checkb (l "at least one aggregated flush") true (ns.Stream.flushes >= 1);
      checkb (l "coalescing counted") true (ns.Stream.coalesced_frames >= got);
      close ())

let test_crash_reconnect_backoff () =
  over_families (fun family l ->
      let exec = Realtime.create () in
      let h, tr, inbox, close = make ~n:2 family exec in
      send tr ~src:0 ~dst:1 "pre";
      Realtime.run_for exec ~duration_ms:100.0;
      Alcotest.(check (list (pair int string))) (l "healthy delivery") [ (0, "pre") ] (inbox 1);
      (* Replica 1 dies: its listener and accepted connections vanish. The
         sender's next writes hit a reset stream, tear the connection down,
         and enter capped backoff — dropping, never blocking. *)
      Stream.crash_replica h 1;
      for i = 0 to 29 do
        send tr ~src:0 ~dst:1 (Printf.sprintf "lost-%d" i);
        Realtime.run_for exec ~duration_ms:10.0
      done;
      let ns = Stream.net_stats h in
      checkb (l "teardown / failed dials counted") true (ns.Stream.dial_failures >= 1);
      let stats = tr.Backend.Transport.stats () in
      checkb (l "frames to the dead peer dropped") true (stats.Backend.Transport.dropped >= 1);
      (* Replica 1 comes back on the same address (a Unix-domain listener
         unlinks its stale socket file first): once the sender's backoff
         deadline passes, a send re-dials and delivery resumes. *)
      Stream.restart_replica h 1;
      let delivered () =
        List.exists (fun (_, m) -> String.length m >= 5 && String.sub m 0 5 = "back-") (inbox 1)
      in
      let i = ref 0 in
      while (not (delivered ())) && !i < 400 do
        send tr ~src:0 ~dst:1 (Printf.sprintf "back-%d" !i);
        Realtime.run_for exec ~duration_ms:10.0;
        incr i
      done;
      checkb (l "delivery resumed after restart") true (delivered ());
      checkb (l "reconnect counted") true ((Stream.net_stats h).Stream.reconnects >= 1);
      close ())

(* ------------------------------------------------------------------ *)
(* Acceptance gates: the transport never changes what commits. *)

let run_cluster ~transport ?delays_ms ?(coalesce_us = 0.0) ?(n = 4) ?(duration_ms = 1_200.0)
    ~seed () =
  let committee = Committee.make ~n ~cluster_seed:seed () in
  let protocol = Config.without_signature_checks (Config.shoalpp ~committee) in
  let setup =
    {
      (Node.default_setup ~protocol) with
      Node.load_tps = 200.0;
      seed;
      transport;
      coalesce_us;
      delays_ms;
    }
  in
  let node = Node.create setup in
  Node.run node ~duration_ms;
  node

let check_audit ~label node =
  let audit = Node.audit node in
  checkb (label ^ ": consistent prefixes") true audit.Node.consistent_prefixes;
  checki (label ^ ": no duplicate orders") 0 audit.Node.duplicate_orders;
  checkb (label ^ ": progress") true (audit.Node.total_segments > 0)

(* The golden cross-transport test: same seed, same protocol, three
   transports — loopback, UDS, TCP (with coalescing, which batches writes
   but must not reorder frames). The committed anchor sequences must agree
   on their common prefix; the transport may change timing, never
   content. *)
let test_tcp_commit_sequence_matches_uds_and_loopback () =
  let uds_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "shoalpp-tcp-test-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists uds_dir) then Unix.mkdir uds_dir 0o700;
  let runs =
    [
      ("loopback", run_cluster ~transport:Node.Inproc ~seed:31 ());
      ("uds", run_cluster ~transport:(Node.Uds uds_dir) ~seed:31 ());
      ("tcp", run_cluster ~transport:(Node.Tcp 0) ~coalesce_us:500.0 ~seed:31 ());
    ]
  in
  List.iter (fun (label, node) -> check_audit ~label node) runs;
  let ids = List.map (fun (label, node) -> (label, Node.ordered_ids node ~replica:0)) runs in
  let rec common_prefix_equal a b =
    match (a, b) with
    | x :: a', y :: b' -> x = y && common_prefix_equal a' b'
    | _, [] | [], _ -> true
  in
  List.iter
    (fun (la, a) ->
      List.iter
        (fun (lb, b) ->
          checkb
            (Printf.sprintf "%s and %s agree on the common commit prefix" la lb)
            true (common_prefix_equal a b);
          checkb
            (Printf.sprintf "%s/%s common prefix is non-trivial" la lb)
            true (min (List.length a) (List.length b) > 0))
        ids)
    ids;
  (match Sys.readdir uds_dir with
  | entries ->
    Array.iter (fun f -> try Sys.remove (Filename.concat uds_dir f) with Sys_error _ -> ()) entries;
    (try Sys.rmdir uds_dir with Sys_error _ -> ())
  | exception Sys_error _ -> ())

(* n = 10 over TCP with the paper's 10-region GCP delay matrix applied
   sender-side: commits still happen (the shim only stretches time) and
   the safety audit holds under realistic, heterogeneous latencies. *)
let test_tcp_gcp10_delay_shim () =
  let delays_ms = Topology.delay_matrix (Topology.gcp10 ()) ~n:10 in
  let node =
    run_cluster ~transport:(Node.Tcp 0) ~delays_ms ~coalesce_us:500.0 ~n:10
      ~duration_ms:2_500.0 ~seed:33 ()
  in
  check_audit ~label:"tcp+gcp10" node;
  let ports_resolved =
    match Node.stream node with
    | Some s ->
      let addrs = Stream.addrs s in
      Array.length addrs = 10
      && Array.for_all (function Unix.ADDR_INET (_, p) -> p > 0 | Unix.ADDR_UNIX _ -> false) addrs
    | None -> false
  in
  checkb "tcp ports resolved" true ports_resolved

let suite =
  [
    ( "backend.tcp",
      [
        Alcotest.test_case "delivery + partial frames" `Quick test_delivery_and_partial_frames;
        Alcotest.test_case "coalescing flush on budget expiry" `Quick
          test_coalescing_flush_on_budget;
        Alcotest.test_case "coalescing flush on byte threshold" `Quick
          test_coalescing_flush_on_threshold;
        Alcotest.test_case "crash, backoff, reconnect" `Quick test_crash_reconnect_backoff;
        Alcotest.test_case "commit sequence matches uds + loopback" `Slow
          test_tcp_commit_sequence_matches_uds_and_loopback;
        Alcotest.test_case "n=10 under the gcp10 delay shim" `Slow test_tcp_gcp10_delay_shim;
      ] );
  ]
