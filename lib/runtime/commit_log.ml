(* The Shoal++ harnesses' observer of "a replica ordered a segment": the
   per-replica anchor logs and tx dedup the safety audit reads, the
   recovery bookkeeping that mutes both, and the hand-off of each origin
   commit to the ledger. {!Cluster} (simulated) and {!Node} (wall clock)
   each own one and wire {!on_ordered} into every replica. *)

module Replica = Shoalpp_core.Replica
module Driver = Shoalpp_consensus.Driver
module Types = Shoalpp_dag.Types
module Transaction = Shoalpp_workload.Transaction
module Batch = Shoalpp_workload.Batch

(* Anchor identity of one ordered segment — what the audit compares across
   replicas (node sets differ only transiently). *)
type seg_id = { sdag : int; sround : int; sauthor : int }

let equal_seg a b =
  Int.equal a.sdag b.sdag && Int.equal a.sround b.sround && Int.equal a.sauthor b.sauthor

type t = {
  num_dags : int;
  track_logs : bool;
  ledger : Ledger.t;
  logs : seg_id list array; (* newest first; empty unless track_logs *)
  ordered_seen : (int, unit) Hashtbl.t array; (* per-replica txn dedup *)
  recovering : bool array; (* replay/catch-up in progress: ledger/dedup muted *)
  (* Pre-crash (base seq, log) per recovered replica: the rebuilt log must
     extend it above the restored checkpoint. *)
  pre_recovery : (int, int * seg_id list) Hashtbl.t;
  mutable duplicate_orders : int;
}

let create ~n ~num_dags ?(track_logs = true) ~ledger () =
  {
    num_dags = max 1 num_dags;
    track_logs;
    ledger;
    logs = Array.make n [];
    ordered_seen = Array.init n (fun _ -> Hashtbl.create 4096);
    recovering = Array.make n false;
    pre_recovery = Hashtbl.create 4;
    duplicate_orders = 0;
  }

let on_ordered t ~replica (o : Replica.ordered) =
  let seg = o.Replica.segment in
  let recovering = t.recovering.(replica) in
  let seen = t.ordered_seen.(replica) in
  if t.track_logs then begin
    let anchor = seg.Driver.anchor in
    let id =
      {
        sdag = seg.Driver.dag_id;
        sround = anchor.Types.ref_round;
        sauthor = anchor.Types.ref_author;
      }
    in
    t.logs.(replica) <- id :: t.logs.(replica)
  end;
  List.iter
    (fun (cn : Types.certified_node) ->
      let node = cn.Types.cn_node in
      let batch = node.Types.batch in
      List.iter
        (fun (tx : Transaction.t) ->
          if t.track_logs then begin
            if Hashtbl.mem seen tx.Transaction.id then begin
              (* Replay/catch-up re-orders history by design; only a repeat
                 outside recovery is a safety violation. *)
              if not recovering then t.duplicate_orders <- t.duplicate_orders + 1
            end
            else Hashtbl.replace seen tx.Transaction.id ()
          end;
          if tx.Transaction.origin = replica && not recovering then
            Ledger.record t.ledger
              {
                Ledger.le_tx = tx.Transaction.id;
                le_origin = replica;
                le_dag = seg.Driver.dag_id;
                le_rule = Ledger.rule_of_kind seg.Driver.kind;
                le_seq = o.Replica.global_seq;
                le_submitted = tx.Transaction.submitted_at;
                le_batched = batch.Batch.created_at;
                le_included = node.Types.created_at;
                le_committed = seg.Driver.committed_at;
                le_ordered = o.Replica.ordered_at;
              })
        batch.Batch.txns)
    seg.Driver.nodes

let begin_recovery t ~replica ~base_seq =
  Hashtbl.replace t.pre_recovery replica (base_seq, t.logs.(replica));
  t.logs.(replica) <- [];
  Hashtbl.reset t.ordered_seen.(replica);
  t.recovering.(replica) <- true

let caught_up t ~replica = t.recovering.(replica) <- false
let recovering t ~replica = t.recovering.(replica)

let ordered_ids t ~replica =
  List.rev_map (fun s -> (s.sdag, s.sround, s.sauthor)) t.logs.(replica)

let prefixes_agree ~equal ?bases logs =
  let base i = match bases with Some b -> b.(i) | None -> 0 in
  let agree a b =
    let lo = max (base a) (base b) in
    let hi = min (base a + Array.length logs.(a)) (base b + Array.length logs.(b)) in
    let rec from seq =
      seq >= hi || (equal logs.(a).(seq - base a) logs.(b).(seq - base b) && from (seq + 1))
    in
    from lo
  in
  let n = Array.length logs in
  let ok = ref true in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if !ok && not (agree a b) then ok := false
    done
  done;
  !ok

type audit = {
  consistent_prefixes : bool;
  prefix_length : int;
  duplicate_orders : int;
  total_segments : int;
  recovery_prefix_ok : bool;
  recoveries_audited : int;
  anchors_per_lane : int array;
}

let audit t ~bases =
  let logs = Array.map (fun l -> Array.of_list (List.rev l)) t.logs in
  (* A checkpoint-recovered replica's log starts at its base sequence, not
     0, so lengths and comparisons are in global-sequence coordinates. *)
  let ends = Array.mapi (fun i l -> bases.(i) + Array.length l) logs in
  (* Each recovered replica's rebuilt log must reach at least as far as its
     pre-crash log and agree with it where both hold entries: replay +
     catch-up may not lose or reorder history. Entries below the
     post-recovery base were pruned under a certified checkpoint and are
     vouched for by its digest, not by replay. *)
  let recovery_ok = ref true in
  Shoalpp_support.Sorted_tbl.iter ~cmp:Int.compare
    (fun i (pre_base, snapshot) ->
      let pre = Array.of_list (List.rev snapshot) in
      let agree =
        prefixes_agree ~equal:equal_seg ~bases:[| pre_base; bases.(i) |] [| pre; logs.(i) |]
      in
      if ends.(i) < pre_base + Array.length pre || not agree then recovery_ok := false)
    t.pre_recovery;
  let lanes = Array.make t.num_dags 0 in
  if Array.length logs > 0 then
    Array.iter
      (fun s -> if s.sdag < t.num_dags then lanes.(s.sdag) <- lanes.(s.sdag) + 1)
      logs.(0);
  {
    consistent_prefixes = prefixes_agree ~equal:equal_seg ~bases logs;
    prefix_length = (if Array.length ends = 0 then 0 else Array.fold_left min max_int ends);
    duplicate_orders = t.duplicate_orders;
    total_segments = Array.fold_left max 0 ends;
    recovery_prefix_ok = !recovery_ok;
    recoveries_audited = Hashtbl.length t.pre_recovery;
    anchors_per_lane = lanes;
  }
