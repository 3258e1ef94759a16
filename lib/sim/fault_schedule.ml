type drop_rule = { replicas : int list; rate : float; from_time : float; until_time : float }

type partition = { groups : int list list; from_time : float; until_time : float }

type t = {
  crashes : (int * float) list;
  recoveries : (int * float) list;
  drops : drop_rule list;
  partitions : partition list;
}

let none = { crashes = []; recoveries = []; drops = []; partitions = [] }

let crash t ~replica ~at = { t with crashes = (replica, at) :: t.crashes }

let crash_many t ~replicas ~at =
  List.fold_left (fun t replica -> crash t ~replica ~at) t replicas

let recover t ~replica ~at = { t with recoveries = (replica, at) :: t.recoveries }

let drop_egress t ~replicas ~rate ~from_time ?(until_time = infinity) () =
  { t with drops = { replicas; rate; from_time; until_time } :: t.drops }

let partition t ~groups ~from_time ~until_time =
  { t with partitions = { groups; from_time; until_time } :: t.partitions }

let crash_time t ~replica =
  List.fold_left
    (fun acc (r, at) ->
      if r <> replica then acc
      else match acc with None -> Some at | Some prev -> Some (Float.min prev at))
    None t.crashes

(* Crash/recover events interleave into up/down intervals: the replica is
   crashed at [time] iff the latest event at or before [time] is a crash.
   Ties resolve in favour of recovery (a same-instant recover wins). *)
let is_crashed t ~replica ~time =
  let events =
    List.filter_map (fun (r, at) -> if r = replica then Some (at, 0) else None) t.crashes
    @ List.filter_map (fun (r, at) -> if r = replica then Some (at, 1) else None) t.recoveries
  in
  match List.filter (fun (at, _) -> at <= time) events with
  | [] -> false
  | past ->
    let _, kind = List.fold_left (fun acc e -> if compare e acc >= 0 then e else acc)
        (List.hd past) (List.tl past)
    in
    kind = 0

let egress_drop_rate t ~src ~time =
  List.fold_left
    (fun acc (rule : drop_rule) ->
      if time >= rule.from_time && time < rule.until_time && List.mem src rule.replicas then
        (* Independent drop sources combine: 1 - (1-a)(1-b). *)
        1.0 -. ((1.0 -. acc) *. (1.0 -. rule.rate))
      else acc)
    0.0 t.drops

let group_of groups replica =
  let rec scan i = function
    | [] -> None
    | g :: rest -> if List.mem replica g then Some i else scan (i + 1) rest
  in
  scan 0 groups

let reachable t ~src ~dst ~time =
  src = dst
  || List.for_all
       (fun p ->
         if time < p.from_time || time >= p.until_time then true
         else begin
           match (group_of p.groups src, group_of p.groups dst) with
           | Some a, Some b -> a = b
           | _ -> true (* replicas not named by the partition are unaffected *)
         end)
       t.partitions

let partitions t = t.partitions

let crashed_replicas t ~time =
  List.filter_map (fun (r, _) -> if is_crashed t ~replica:r ~time then Some r else None) t.crashes
  |> List.sort_uniq compare
