(* Parallel staggered DAGs (§5.3): the queuing-latency augmentation.

   Sweeps the number of concurrent DAG instances k on the same deployment
   and prints how queuing latency falls (proposal opportunities every
   round/k) while the interleaving of per-DAG logs keeps a single total
   order. Also demonstrates the round-robin interleave invariant directly:
   the global log is a sequence of turns, one lane-round each, rotating
   dag 0,1,2,0,1,2,...

     dune exec examples/parallel_dags.exe *)

module E = Shoalpp_runtime.Experiment
module Report = Shoalpp_runtime.Report
module Tablefmt = Shoalpp_support.Tablefmt
module Engine = Shoalpp_sim.Engine
module Topology = Shoalpp_sim.Topology
module Netmodel = Shoalpp_sim.Netmodel
module Fault_schedule = Shoalpp_sim.Fault_schedule
module Committee = Shoalpp_dag.Committee
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Mempool = Shoalpp_workload.Mempool

let () =
  Format.printf "=== k-DAG sweep (n=16, geo, 2000 tps) ===@.";
  let rows =
    List.map
      (fun k ->
        let o =
          E.run E.Shoalpp
            {
              E.default_params with
              E.n = 16;
              load_tps = 2_000.0;
              duration_ms = 15_000.0;
              warmup_ms = 3_000.0;
              num_dags = Some k;
              verify_signatures = false;
            }
        in
        Printf.sprintf "k=%d" k :: List.tl (Report.table_row o.E.report))
      [ 1; 2; 3; 4 ]
  in
  Tablefmt.print ~header:Report.table_header rows;
  Format.printf
    "@.queuing latency falls with k (proposals every round/k, lanes one round@.\
     period / k apart), and the merge appends each lane's whole round in one@.\
     turn, so no segment waits for another lane; k>1 also sustains higher@.\
     throughput (smaller, more frequent batches), as the paper's Fig 6 reports.@.";

  (* The interleave invariant, observed directly. *)
  Format.printf "@.=== global log rotates across DAGs ===@.";
  let committee = Committee.make ~n:4 () in
  let engine = Engine.create () in
  let topology = Topology.clique ~regions:4 ~one_way_ms:20.0 in
  let assignment = Topology.assign_round_robin topology ~n:4 in
  let net =
    Netmodel.create ~engine ~topology ~assignment ~fault:Fault_schedule.none
      ~config:Netmodel.default_config ~seed:3 ()
  in
  let world = Shoalpp_backend.Backend_sim.of_net net in
  let protocol = Config.with_stagger_for ~max_one_way_ms:20.0 (Config.shoalpp ~committee) in
  let mempools = Array.init 4 (fun _ -> Mempool.create ()) in
  let ids = ref [] in
  let replicas =
    Array.init 4 (fun replica_id ->
        Replica.create ~config:protocol ~replica_id
          ~backend:(Shoalpp_backend.Backend_sim.backend world)
          ~mempool:mempools.(replica_id)
          ?on_ordered:
            (if replica_id = 0 then
               Some
                 (fun (o : Replica.ordered) ->
                   ids := o.Replica.segment.Shoalpp_consensus.Driver.dag_id :: !ids)
             else None)
          ())
  in
  Array.iter Replica.start replicas;
  Engine.run ~until:2_000.0 engine;
  (* A turn is a maximal run of one lane (k > 1): count its segments. *)
  let turns =
    List.fold_left
      (fun acc dag ->
        match acc with (d, len) :: rest when d = dag -> (d, len + 1) :: rest | _ -> (dag, 1) :: acc)
      [] (List.rev !ids)
    |> List.rev
  in
  Format.printf "first turns (dag:segments): %s ...@."
    (String.concat " "
       (List.map (fun (d, len) -> Printf.sprintf "%d:%d" d len) (List.filteri (fun i _ -> i < 12) turns)));
  let ok = List.for_all2 (fun i (dag, _) -> dag = i mod 3) (List.init (List.length turns) Fun.id) turns in
  Format.printf "turns rotate round-robin: %b@." ok
