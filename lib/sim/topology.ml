type t = { names : string array; one_way : float array array }

(* Approximate public inter-region RTTs (ms) for the paper's ten GCP regions.
   Order: us-west1, us-east1, europe-west4, europe-southwest1,
   asia-northeast3, asia-southeast1, asia-south1, southamerica-east1,
   africa-south1, australia-southeast1. Diagonal = intra-region RTT. *)
let gcp_rtt =
  [|
    [| 2.; 60.; 135.; 145.; 120.; 170.; 215.; 175.; 250.; 140. |];
    [| 60.; 2.; 90.; 100.; 180.; 215.; 200.; 120.; 230.; 200. |];
    [| 135.; 90.; 2.; 25.; 220.; 165.; 120.; 200.; 155.; 250. |];
    [| 145.; 100.; 25.; 2.; 240.; 180.; 130.; 190.; 165.; 270. |];
    [| 120.; 180.; 220.; 240.; 2.; 70.; 130.; 255.; 300.; 135. |];
    [| 170.; 215.; 165.; 180.; 70.; 2.; 60.; 300.; 260.; 95. |];
    [| 215.; 200.; 120.; 130.; 130.; 60.; 2.; 300.; 230.; 150. |];
    [| 175.; 120.; 200.; 190.; 255.; 300.; 300.; 2.; 317.; 280. |];
    [| 250.; 230.; 155.; 165.; 300.; 260.; 230.; 317.; 2.; 275. |];
    [| 140.; 200.; 250.; 270.; 135.; 95.; 150.; 280.; 275.; 2. |];
  |]

let gcp_names =
  [|
    "us-west1"; "us-east1"; "europe-west4"; "europe-southwest1"; "asia-northeast3";
    "asia-southeast1"; "asia-south1"; "southamerica-east1"; "africa-south1";
    "australia-southeast1";
  |]

let gcp10 () =
  let one_way = Array.map (Array.map (fun rtt -> rtt /. 2.0)) gcp_rtt in
  { names = Array.copy gcp_names; one_way }

let uniform ~delay_ms = { names = [| "uniform" |]; one_way = [| [| delay_ms |] |] }

let clique ~regions ~one_way_ms =
  let names = Array.init regions (Printf.sprintf "region-%d") in
  let one_way =
    Array.init regions (fun i ->
        Array.init regions (fun j -> if i = j then 0.5 else one_way_ms))
  in
  { names; one_way }

let num_regions t = Array.length t.names

let one_way_ms t i j = t.one_way.(i).(j)

let assign_round_robin t ~n = Array.init n (fun i -> i mod num_regions t)

let delay_matrix t ~n =
  let regions = assign_round_robin t ~n in
  Array.init n (fun src ->
      Array.init n (fun dst ->
          if src = dst then 0.0 else one_way_ms t regions.(src) regions.(dst)))

let max_one_way_ms t =
  Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) 0.0 t.one_way
