(* The benchmark's own view of a cluster: every replica's ordered log, the
   per-transaction latency at the origin, the pipeline waits of the
   measured window, and the safety audit — fed only from the replicas'
   public [on_ordered] / [on_caught_up] callbacks and accessors. *)

module Replica = Shoalpp_core.Replica
module Driver = Shoalpp_consensus.Driver
module Types = Shoalpp_dag.Types
module Batch = Shoalpp_workload.Batch
module Transaction = Shoalpp_workload.Transaction

(* Growable unboxed buffers. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 nan; len = 0 }

  let reserve t n =
    if n > Array.length t.a then begin
      let a = Array.make (max n (2 * Array.length t.a)) nan in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end

  let push t x =
    reserve t (t.len + 1);
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  (* Slot [i], growing (and filling with nan) as needed. *)
  let set t i x =
    reserve t (i + 1);
    t.a.(i) <- x;
    if i >= t.len then t.len <- i + 1

  let get t i = if i < t.len then t.a.(i) else nan
  let to_array t = Array.sub t.a 0 t.len
end

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 256 0; len = 0 }

  let push t x =
    if t.len = Array.length t.a then begin
      let a = Array.make (2 * t.len) 0 in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.a 0 t.len
  let clear t = t.len <- 0
end

(* Growable bitset over transaction ids: "already ordered by this replica". *)
module Bits = struct
  type t = { mutable b : Bytes.t }

  let create () = { b = Bytes.make 1024 '\000' }
  let clear t = Bytes.fill t.b 0 (Bytes.length t.b) '\000'

  let test_and_set t i =
    let byte = i lsr 3 in
    if byte >= Bytes.length t.b then begin
      let b = Bytes.make (max (byte + 1) (2 * Bytes.length t.b)) '\000' in
      Bytes.blit t.b 0 b 0 (Bytes.length t.b);
      t.b <- b
    end;
    let v = Char.code (Bytes.unsafe_get t.b byte) in
    let m = 1 lsl (i land 7) in
    if v land m <> 0 then true
    else begin
      Bytes.unsafe_set t.b byte (Char.unsafe_chr (v lor m));
      false
    end
end

(* Exact quantile (linear interpolation between order statistics) of the
   non-nan values. *)
let quantile values q =
  let a = Array.of_seq (Seq.filter (fun x -> not (Float.is_nan x)) (Array.to_seq values)) in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

(* One log entry: the ordered segment's anchor identity. *)
let pack ~dag ~round ~author = (dag lsl 48) lor (round lsl 20) lor author

type t = {
  n : int;
  now : unit -> float;
  mutable replicas : Replica.t array;
  logs : Ibuf.t array;
  seen : Bits.t array;
  recovering : bool array;
  recover_started : float array;
  catchup_ms : Fbuf.t;
  mutable pre_recovery : (int * int * int array) list;  (** replica, base seq, log *)
  mutable duplicates : int;
  latency : Fbuf.t;  (** submit -> ordered at the origin, by tx id; nan = not yet *)
  mutable origin_commits : int;  (** origin commits outside recovery, whole run *)
  (* Window of submit times whose pipeline waits are sampled. *)
  mutable wait_lo : float;
  mutable wait_hi : float;
  mempool_wait : Fbuf.t;
  proposal_to_commit : Fbuf.t;
  merge_wait : Fbuf.t;
  (* Windows of ordered times whose origin commits are counted. *)
  mutable tput_lo : float;
  mutable tput_hi : float;
  mutable tput_count : int;
  mutable cap_lo : float;
  mutable cap_hi : float;
  mutable cap_count : int;
  (* Replica 0's ordered nodes, for transactions per proposal. *)
  mutable nodes_ordered : int;
  mutable txns_in_nodes : int;
  mutable pending_sum : int;
  mutable pending_samples : int;
}

let create ~n ~now =
  {
    n;
    now;
    replicas = [||];
    logs = Array.init n (fun _ -> Ibuf.create ());
    seen = Array.init n (fun _ -> Bits.create ());
    recovering = Array.make n false;
    recover_started = Array.make n nan;
    catchup_ms = Fbuf.create ();
    pre_recovery = [];
    duplicates = 0;
    latency = Fbuf.create ();
    origin_commits = 0;
    wait_lo = infinity;
    wait_hi = infinity;
    mempool_wait = Fbuf.create ();
    proposal_to_commit = Fbuf.create ();
    merge_wait = Fbuf.create ();
    tput_lo = infinity;
    tput_hi = infinity;
    tput_count = 0;
    cap_lo = infinity;
    cap_hi = infinity;
    cap_count = 0;
    nodes_ordered = 0;
    txns_in_nodes = 0;
    pending_sum = 0;
    pending_samples = 0;
  }

let origin_commit t (tx : Transaction.t) ~ordered_at ~batched ~included ~committed =
  t.origin_commits <- t.origin_commits + 1;
  if ordered_at >= t.tput_lo && ordered_at < t.tput_hi then t.tput_count <- t.tput_count + 1;
  if ordered_at >= t.cap_lo && ordered_at < t.cap_hi then t.cap_count <- t.cap_count + 1;
  let submitted = tx.Transaction.submitted_at in
  Fbuf.set t.latency tx.Transaction.id (ordered_at -. submitted);
  if submitted >= t.wait_lo && submitted < t.wait_hi then begin
    Fbuf.push t.mempool_wait (batched -. submitted);
    Fbuf.push t.proposal_to_commit (committed -. included);
    Fbuf.push t.merge_wait (ordered_at -. committed)
  end

let on_ordered t replica (o : Replica.ordered) =
  let seg = o.Replica.segment in
  let anchor = seg.Driver.anchor in
  Ibuf.push t.logs.(replica)
    (pack ~dag:seg.Driver.dag_id ~round:anchor.Types.ref_round ~author:anchor.Types.ref_author);
  let recovering = t.recovering.(replica) in
  if replica = 0 then begin
    t.pending_sum <- t.pending_sum + Replica.pending_segments t.replicas.(0);
    t.pending_samples <- t.pending_samples + 1
  end;
  List.iter
    (fun (cn : Types.certified_node) ->
      let node = cn.Types.cn_node in
      let batch = node.Types.batch in
      if replica = 0 then begin
        t.nodes_ordered <- t.nodes_ordered + 1;
        t.txns_in_nodes <- t.txns_in_nodes + Batch.length batch
      end;
      List.iter
        (fun (tx : Transaction.t) ->
          (* Replay and catch-up re-order history by design; only a repeat
             outside recovery is a safety violation. *)
          if Bits.test_and_set t.seen.(replica) tx.Transaction.id then begin
            if not recovering then t.duplicates <- t.duplicates + 1
          end
          else if tx.Transaction.origin = replica && not recovering then
            origin_commit t tx ~ordered_at:o.Replica.ordered_at ~batched:batch.Batch.created_at
              ~included:node.Types.created_at ~committed:seg.Driver.committed_at)
        batch.Batch.txns)
    seg.Driver.nodes

let caught_up t replica =
  if t.recovering.(replica) then begin
    t.recovering.(replica) <- false;
    Fbuf.push t.catchup_ms (t.now () -. t.recover_started.(replica))
  end

(* Restart a crashed replica: its pre-crash log is kept for the audit, and
   dedup starts afresh (replay re-orders history). *)
let recover t replica =
  let r = t.replicas.(replica) in
  t.pre_recovery <-
    (replica, Replica.base_seq r, Ibuf.to_array t.logs.(replica)) :: t.pre_recovery;
  Ibuf.clear t.logs.(replica);
  Bits.clear t.seen.(replica);
  t.recovering.(replica) <- true;
  t.recover_started.(replica) <- t.now ();
  Replica.recover r

type audit = {
  consistent_prefixes : bool;  (** every pair of logs agrees where both have a seq *)
  duplicate_orders : int;
  recovery_prefix_ok : bool;  (** each recovered log extends its pre-crash log *)
  caught_up : bool;  (** no replica is still replaying or syncing *)
  lanes_ok : bool;  (** replica 0 ordered at least one segment on every lane *)
  segments : int;  (** replica 0's log length *)
}

let audit t ~num_dags =
  let logs = Array.map Ibuf.to_array t.logs in
  let bases = Array.map Replica.base_seq t.replicas in
  (* Global-sequence coordinates: a checkpoint-recovered log starts at its
     base sequence. The first replica to hold a seq defines it. *)
  let top = ref 0 in
  Array.iteri (fun i l -> top := max !top (bases.(i) + Array.length l)) logs;
  let reference = Array.make !top (-1) in
  let consistent = ref true in
  Array.iteri
    (fun i l ->
      Array.iteri
        (fun k e ->
          let seq = bases.(i) + k in
          if reference.(seq) < 0 then reference.(seq) <- e
          else if reference.(seq) <> e then consistent := false)
        l)
    logs;
  let recovery_ok =
    List.for_all
      (fun (i, pre_base, pre) ->
        let post = logs.(i) and post_base = bases.(i) in
        post_base + Array.length post >= pre_base + Array.length pre
        && Array.for_all Fun.id
             (Array.mapi
                (fun k e ->
                  let seq = pre_base + k in
                  seq < post_base || post.(seq - post_base) = e)
                pre))
      t.pre_recovery
  in
  let lanes = Array.make num_dags false in
  Array.iter (fun e -> lanes.(e lsr 48) <- true) logs.(0);
  {
    consistent_prefixes = !consistent;
    duplicate_orders = t.duplicates;
    recovery_prefix_ok = recovery_ok;
    caught_up =
      Array.for_all Fun.id
        (Array.mapi (fun i r -> (not t.recovering.(i)) && not (Replica.catching_up r)) t.replicas);
    lanes_ok = Array.for_all Fun.id lanes;
    segments = Array.length logs.(0);
  }

let audit_ok a =
  a.consistent_prefixes && a.duplicate_orders = 0 && a.recovery_prefix_ok && a.caught_up
  && a.lanes_ok

(* MD5 of replica 0's ordered-segment sequence. *)
let digest t =
  let log = Ibuf.to_array t.logs.(0) in
  let b = Buffer.create (8 * Array.length log) in
  Array.iter (fun e -> Buffer.add_int64_le b (Int64.of_int e)) log;
  Digest.to_hex (Digest.string (Buffer.contents b))
