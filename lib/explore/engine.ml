type source = Evaluated | Cached

type status =
  | Solved of Lattice.metrics
  | Infeasible of string
  | Failed of string

type eval = {
  e_point : Lattice.point;
  e_key : string;
  e_status : status;
  e_source : source;
}

type outcome = {
  evals : eval list;
  seed_points : int;
  refined_points : int;
  cache_hits : int;
  fresh : int;
  resumed : int;
  interrupted : bool;
}

let solved o =
  List.filter_map
    (fun e ->
      match e.e_status with
      | Solved m -> Some (e.e_point, m)
      | Infeasible _ | Failed _ -> None)
    o.evals

let failures o =
  List.filter_map
    (fun e ->
      match e.e_status with
      | Failed why -> Some (e.e_point, why)
      | Solved _ | Infeasible _ -> None)
    o.evals

let pareto pairs =
  Pareto.of_list ~objectives:(fun (_, m) -> Lattice.objectives m) pairs

let front o = Pareto.members (pareto (solved o))

let front_indices o =
  let idx = Hashtbl.create 16 in
  List.iter
    (fun ((p : Lattice.point), _) -> Hashtbl.replace idx p.Lattice.index ())
    (front o);
  idx

(* --- Running ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let status_of_verdict = function
  | Batch.Verdict.Done payload -> (
      match
        Result.bind (Batch.Jsonl.parse payload) Lattice.metrics_of_json
      with
      | Ok m -> Solved m
      | Error _ -> Failed "unparsable worker payload")
  | Batch.Verdict.Rejected d -> (
      match d.Diag.category with
      | Diag.Infeasible | Diag.Input -> Infeasible d.Diag.code
      | Diag.Usage | Diag.Internal | Diag.Partial | Diag.Unavailable ->
          Failed d.Diag.code)
  | Batch.Verdict.Timeout -> Failed "timeout"
  | Batch.Verdict.Oom -> Failed "oom"
  | Batch.Verdict.Crashed _ as v -> Failed (Batch.Verdict.describe v)

(* Keep memory and disk in step; a dead cache sink only costs cold
   lookups next run, so log and continue. *)
let record store writer ~log ~key ~descr status =
  let cache outcome =
    let e = { Cache.key; descr; outcome } in
    Cache.insert store e;
    Option.iter
      (fun w ->
        match Cache.append w e with
        | Ok () -> ()
        | Error d -> log (Diag.to_string d))
      writer
  in
  match status with
  | Solved m -> cache (Cache.Metrics m)
  | Infeasible code -> cache (Cache.Infeasible code)
  | Failed _ -> ()

type runner =
  deadline:float ->
  (Batch.Pool.job * Batch.Jsonl.t) list ->
  (Batch.Pool.outcome, Diag.t) result

(* Evaluate one batch of points: cache hits short-circuit, the rest run
   through the runner — the local supervised pool by default, a cluster
   dispatcher when the caller injects one; completed verdicts (solved or
   infeasible — never failures) are appended to the cache. Miss keys are
   pinned in the cache for the duration of the run so a concurrent
   eviction scan (shared store, other hosts' results arriving) cannot
   drop an entry the batch is about to need. *)
let evaluate_batch ~graph ~store ~writer ~runner ~deadline ~log points =
  let keyed =
    List.map
      (fun p ->
        let k = Lattice.key ~graph p in
        (p, k, Cache.find store k))
      points
  in
  let hits, misses =
    List.partition (fun (_, _, hit) -> hit <> None) keyed
  in
  let misses = List.map (fun (p, k, _) -> (p, k)) misses in
  let hit_evals =
    List.map
      (fun (p, k, hit) ->
        let entry = Option.get hit in
        let status =
          match entry.Cache.outcome with
          | Cache.Metrics m -> Solved m
          | Cache.Infeasible code -> Infeasible code
        in
        { e_point = p; e_key = k; e_status = status; e_source = Cached })
      hits
  in
  let* miss_evals, fresh, resumed, interrupted =
    if misses = [] then Ok ([], 0, 0, false)
    else begin
      let jobs =
        List.map
          (fun (p, _) -> (Lattice.job ~graph p, Lattice.wire ~graph p))
          misses
      in
      List.iter (fun (_, k) -> Cache.pin store k) misses;
      let run = runner ~deadline jobs in
      List.iter (fun (_, k) -> Cache.unpin store k) misses;
      let* o = run in
      let by_id = Hashtbl.create 16 in
      List.iter
        (fun (r : Batch.Journal.record) ->
          Hashtbl.replace by_id r.Batch.Journal.id r)
        o.Batch.Pool.records;
      let evals =
        List.filter_map
          (fun (p, k) ->
            match Hashtbl.find_opt by_id k with
            | None -> None (* in flight at an interrupt *)
            | Some r ->
                let status = status_of_verdict r.Batch.Journal.verdict in
                record store writer ~log ~key:k ~descr:(Lattice.descr p)
                  status;
                Some { e_point = p; e_key = k; e_status = status;
                       e_source = Evaluated })
          misses
      in
      Ok
        ( evals,
          List.length o.Batch.Pool.records - o.Batch.Pool.resumed,
          o.Batch.Pool.resumed,
          o.Batch.Pool.interrupted )
    end
  in
  Ok (hit_evals @ miss_evals, List.length hits, fresh, resumed, interrupted)

let run ?(workers = 1) ?cache ?journal ?(resume = false) ?(deadline = 60.)
    ?budget ?(log = ignore) ?runner (spec : Spec.t) =
  let runner =
    match runner with
    | Some r -> r
    | None ->
        fun ~deadline jobs ->
          Batch.Pool.run ~workers ~retry:Batch.Retry.none ?journal ~resume
            ~log ~deadline (List.map fst jobs)
  in
  let* g0 = Batch.Manifest.load_graph spec.Spec.graph in
  let* graph = if spec.Spec.cse then Harness.Problem.cse g0 else Ok g0 in
  let seed_points = Lattice.expand spec in
  let* store =
    match cache with None -> Ok (Cache.empty ()) | Some p -> Cache.load p
  in
  let* writer =
    match cache with
    | None -> Ok None
    | Some p -> Result.map Option.some (Cache.open_writer p)
  in
  let finish r =
    Option.iter Cache.close writer;
    r
  in
  let batch points =
    evaluate_batch ~graph ~store ~writer ~runner ~deadline ~log points
  in
  match
    let* evals, hits, fresh, resumed, interrupted = batch seed_points in
    let acc =
      {
        evals;
        seed_points = List.length seed_points;
        refined_points = 0;
        cache_hits = hits;
        fresh;
        resumed;
        interrupted;
      }
    in
    (* Adaptive refinement: bisect the weight axes between adjacent front
       points until the budget is spent or a round proposes nothing new. *)
    let budget = Option.value budget ~default:spec.Spec.budget in
    let rec refine acc budget next_index =
      if budget <= 0 || acc.interrupted then Ok acc
      else begin
        let seen_keys = Hashtbl.create 64 in
        List.iter (fun e -> Hashtbl.replace seen_keys e.e_key ()) acc.evals;
        let front = Pareto.members (pareto (solved acc)) in
        let cands =
          Refine.bisect ~front
            ~seen:(Hashtbl.mem seen_keys)
            ~graph ~next_index ~budget
        in
        if cands = [] then Ok acc
        else begin
          log
            (Printf.sprintf "refine: %d candidate(s), budget %d"
               (List.length cands) budget);
          let* evals, hits, fresh, resumed, interrupted = batch cands in
          refine
            {
              acc with
              evals = acc.evals @ evals;
              refined_points = acc.refined_points + List.length cands;
              cache_hits = acc.cache_hits + hits;
              fresh = acc.fresh + fresh;
              resumed = acc.resumed + resumed;
              interrupted;
            }
            (budget - List.length cands)
            (next_index + List.length cands)
        end
      end
    in
    refine acc budget (List.length seed_points)
  with
  | r -> finish r
  | exception e ->
      ignore (finish (Ok ()));
      raise e
