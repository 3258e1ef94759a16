module Types = Shoalpp_dag.Types

type t = {
  n : int;
  window : int;
  staleness : int;
  enabled : bool;
  scores : int array; (* segments supported within the window *)
  last_round : int array; (* highest ordered node round per author; -1 = never *)
  last_support : int array; (* highest anchor round the author supported *)
  recent : int list Queue.t; (* per-segment supporter lists, oldest first *)
  miss_threshold : int;
  miss : int array; (* consecutive skipped-anchor streak per author *)
  supporting : bool array;
      (* scratch for [observe_segment]'s dedup; all false between calls *)
  mutable highest_anchor_round : int;
}

let create ~n ?(window = 64) ?(staleness = 8) ?(miss_threshold = 2) ~enabled () =
  {
    n;
    window;
    staleness;
    enabled;
    scores = Array.make n 0;
    last_round = Array.make n (-1);
    last_support = Array.make n (-1);
    recent = Queue.create ();
    miss_threshold;
    miss = Array.make n 0;
    supporting = Array.make n false;
    highest_anchor_round = -1;
  }

(* Supporting a committed anchor — being its author or one of its strong
   parents — is the signal that a replica is currently fast and well
   connected. Stragglers' nodes are swept into histories late via weak
   edges, which must NOT earn anchor candidacy, or the skip cascade of
   §5.2 fires on them (and indirect resolution can wedge on them).

   This runs once per ordered segment, so it walks the segment's own lists
   instead of building (round, author) pairs, and dedupes supporters
   through the [supporting] marks: the scan over 0..n-1 yields the same
   ascending, in-range, duplicate-free list as sorting would, and that list
   is the only allocation. *)
let rec note_ordered t = function
  | [] -> ()
  | (cn : Types.certified_node) :: rest ->
    let round = cn.Types.cn_node.Types.round and author = cn.Types.cn_node.Types.author in
    if author >= 0 && author < t.n && round > t.last_round.(author) then
      t.last_round.(author) <- round;
    note_ordered t rest

let mark t a = if a >= 0 && a < t.n then t.supporting.(a) <- true

let rec mark_parents t = function
  | [] -> ()
  | (p : Types.node_ref) :: rest ->
    mark t p.Types.ref_author;
    mark_parents t rest

let rec uncredit t = function
  | [] -> ()
  | a :: rest ->
    t.scores.(a) <- t.scores.(a) - 1;
    uncredit t rest

let observe_segment t ~anchor_round ~anchor ~parents ~nodes =
  if anchor_round > t.highest_anchor_round then t.highest_anchor_round <- anchor_round;
  note_ordered t nodes;
  mark t anchor;
  mark_parents t parents;
  let supporters = ref [] in
  for a = t.n - 1 downto 0 do
    if t.supporting.(a) then begin
      t.supporting.(a) <- false;
      supporters := a :: !supporters;
      t.scores.(a) <- t.scores.(a) + 1;
      t.miss.(a) <- 0;
      if anchor_round > t.last_support.(a) then t.last_support.(a) <- anchor_round
    end
  done;
  Queue.push !supporters t.recent;
  if Queue.length t.recent > t.window then uncredit t (Queue.pop t.recent)

(* A skipped anchor is part of the committed prefix (the Skip_to decision is
   final and agreed), so penalizing it keeps the scheme a deterministic
   function of that prefix. Streaks reset on the next supported segment. *)
let observe_skip t ~round:_ ~author =
  if author >= 0 && author < t.n then t.miss.(author) <- t.miss.(author) + 1

let miss_streak t a = t.miss.(a)
let score t a = t.scores.(a)

let is_active t ~round a =
  t.miss.(a) < t.miss_threshold
  && (t.highest_anchor_round < 0 (* cold start: everyone active *)
     || t.last_support.(a) >= round - t.staleness)

(* Checkpoint support: the whole state is a bounded window over the
   committed prefix, so it serializes into a few int arrays. [dump]/[load]
   move it through the consensus driver's opaque resume blob. *)
type dump = {
  d_scores : int list;
  d_last_round : int list;
  d_last_support : int list;
  d_miss : int list;
  d_recent : int list list;
  d_highest_anchor_round : int;
}

let dump t =
  {
    d_scores = Array.to_list t.scores;
    d_last_round = Array.to_list t.last_round;
    d_last_support = Array.to_list t.last_support;
    d_miss = Array.to_list t.miss;
    d_recent = List.of_seq (Queue.to_seq t.recent);
    d_highest_anchor_round = t.highest_anchor_round;
  }

let load t d =
  let fill arr l = List.iteri (fun i v -> if i < Array.length arr then arr.(i) <- v) l in
  fill t.scores d.d_scores;
  fill t.last_round d.d_last_round;
  fill t.last_support d.d_last_support;
  fill t.miss d.d_miss;
  Queue.clear t.recent;
  List.iter (fun l -> Queue.push l t.recent) d.d_recent;
  t.highest_anchor_round <- d.d_highest_anchor_round

let rotate slot l =
  match l with
  | [] -> []
  | _ ->
    let len = List.length l in
    let k = ((slot mod len) + len) mod len in
    let arr = Array.of_list l in
    List.init len (fun i -> arr.((i + k) mod len))

let eligible t ~round ~slot =
  let all = List.init t.n Fun.id in
  if not t.enabled then rotate slot all
  else begin
    let active = List.filter (fun a -> is_active t ~round a) all in
    let pool = if active = [] then all else active in
    (* Score-descending; equal scores rotate by slot for fairness. *)
    let rot a = ((a + slot) mod t.n) + (if (a + slot) mod t.n < 0 then t.n else 0) in
    List.stable_sort
      (fun a b ->
        let c = Int.compare t.scores.(b) t.scores.(a) in
        if c <> 0 then c else Int.compare (rot a) (rot b))
      pool
  end
