type point = {
  index : int;
  engine : Spec.engine;
  style : Core.Mfsa.style;
  weights : Core.Mfsa.weights;
  constr : Spec.constraint_;
  library : Spec.library_variant;
  widths : bool;
  ports : int option;
  clock : float option;
  cse : bool;
  fault : Harness.Fault.t option;
}

(* Style and the Liapunov weights only steer MFSA; normalizing them for
   the other engines keeps the lattice free of points that would evaluate
   identically under different keys. *)
let normalize p =
  match p.engine with
  | Spec.Mfsa -> p
  | Spec.Mfs | Spec.List_sched ->
      { p with
        style = Core.Mfsa.Unrestricted;
        weights = Core.Mfsa.equal_weights }

let axes_name p =
  String.concat " "
    ([
       Spec.engine_name p.engine;
       "lib=" ^ Spec.library_name p.library;
       "s" ^ Spec.style_name p.style;
       "w=" ^ Spec.weights_name p.weights;
       Spec.constraint_name p.constr;
     ]
    @ (if p.widths then [ "widths" ] else [])
    @ (match p.ports with
      | None -> []
      | Some n -> [ Printf.sprintf "ports=%d" n ])
    @ (match p.clock with
      | None -> []
      | Some c -> [ Printf.sprintf "clock=%g" c ])
    @ (if p.cse then [ "cse" ] else []))

let descr p =
  axes_name p
  ^
  match p.fault with
  | None -> ""
  | Some f -> " +" ^ Harness.Fault.to_string f

let expand (spec : Spec.t) =
  let seen = Hashtbl.create 64 in
  let points = ref [] in
  let n = ref 0 in
  List.iter
    (fun engine ->
      List.iter
        (fun library ->
          List.iter
            (fun widths ->
              List.iter
                (fun ports ->
                  List.iter
                    (fun style ->
                      List.iter
                        (fun weights ->
                          List.iter
                            (fun constr ->
                              let p =
                                normalize
                                  {
                                    index = !n;
                                    engine;
                                    style;
                                    weights;
                                    constr;
                                    library;
                                    widths;
                                    ports;
                                    clock = spec.Spec.clock;
                                    cse = spec.Spec.cse;
                                    fault = None;
                                  }
                              in
                              let key = axes_name p in
                              if not (Hashtbl.mem seen key) then begin
                                Hashtbl.add seen key ();
                                points := { p with index = !n } :: !points;
                                incr n
                              end)
                            spec.Spec.constraints)
                        spec.Spec.weights)
                    spec.Spec.styles)
                spec.Spec.ports)
            spec.Spec.widths)
        spec.Spec.libraries)
    spec.Spec.engines;
  List.rev_map
    (fun p -> { p with fault = List.assoc_opt p.index spec.Spec.inject })
    !points

(* The point's synthesis problem: the cache key digests its config, the
   evaluation runs on it. *)
let problem ~graph p =
  Harness.Problem.make ~library:p.library ?clock:p.clock ?ports:p.ports
    ~widths:p.widths graph

(* --- Content-addressed keys --------------------------------------------- *)

let options_canonical ~graph p =
  String.concat ";"
    [
      "config="
      ^ Core.Config.canonical (problem ~graph p).Harness.Problem.config;
      "constraint=" ^ Spec.constraint_name p.constr;
      "cse=" ^ string_of_bool p.cse;
      "engine=" ^ Spec.engine_name p.engine;
      ( "fault="
      ^ match p.fault with
        | None -> "none"
        | Some f -> Harness.Fault.to_string f );
      "library=" ^ Spec.library_name p.library;
      "style=" ^ Spec.style_name p.style;
      "weights=" ^ Spec.weights_name p.weights;
      "widths=" ^ string_of_bool p.widths;
    ]

let key ~graph p =
  Batch.Jobs.digest
    (String.concat "|"
       [ "explore"; Dfg.Parser.to_source graph; options_canonical ~graph p ])

(* --- Metrics ------------------------------------------------------------ *)

type metrics = {
  m_csteps : int;
  m_units : int;
  m_alu : float;
  m_mux : float;
  m_reg : int;
  m_total : float;
  m_seconds : float;
}

(* Dominance objectives, all minimized. Wall time is deliberately last so
   callers wanting deterministic fronts can drop it (the default engine
   front uses [objectives]; [objectives_with_time] adds the fifth axis). *)
let objectives m =
  [| float_of_int m.m_csteps; m.m_alu; m.m_mux; float_of_int m.m_reg |]

let objectives_with_time m = Array.append (objectives m) [| m.m_seconds |]

let metrics_to_json m =
  Batch.Jsonl.Obj
    [
      ("status", Batch.Jsonl.String "ok");
      ("csteps", Batch.Jsonl.Int m.m_csteps);
      ("units", Batch.Jsonl.Int m.m_units);
      ("alu", Batch.Jsonl.Float m.m_alu);
      ("mux", Batch.Jsonl.Float m.m_mux);
      ("reg", Batch.Jsonl.Int m.m_reg);
      ("total", Batch.Jsonl.Float m.m_total);
      ("seconds", Batch.Jsonl.Float m.m_seconds);
    ]

let metrics_of_json doc =
  match
    ( Batch.Jsonl.int "csteps" doc,
      Batch.Jsonl.int "units" doc,
      Batch.Jsonl.float "alu" doc,
      Batch.Jsonl.float "mux" doc,
      Batch.Jsonl.int "reg" doc,
      Batch.Jsonl.float "total" doc,
      Batch.Jsonl.float "seconds" doc )
  with
  | Some m_csteps, Some m_units, Some m_alu, Some m_mux, Some m_reg,
    Some m_total, Some m_seconds ->
      Ok { m_csteps; m_units; m_alu; m_mux; m_reg; m_total; m_seconds }
  | _ -> Error "metrics record missing csteps/units/alu/mux/reg/total/seconds"

(* --- Evaluation --------------------------------------------------------- *)

let total_units s =
  List.fold_left (fun n (_, k) -> n + k) 0 (Core.Schedule.fu_counts s)

let evaluate ~graph p =
  Option.iter Harness.Fault.crash p.fault;
  let t0 = Unix.gettimeofday () in
  Result.map
    (fun (d : Harness.Flow.design) ->
      let cost = d.cost in
      {
        m_csteps = d.schedule.Core.Schedule.cs;
        m_units = total_units d.schedule;
        m_alu = cost.Rtl.Cost.alu_area;
        m_mux = cost.Rtl.Cost.mux_area;
        m_reg = cost.Rtl.Cost.n_regs;
        m_total = cost.Rtl.Cost.total;
        m_seconds = Unix.gettimeofday () -. t0;
      })
    (Harness.Flow.synthesize ~style:p.style ~weights:p.weights
       (problem ~graph p) p.engine p.constr)

let job ~graph p =
  Batch.Jobs.generic ~id:(key ~graph p) ~seed:p.index ~descr:(descr p)
    (fun () -> Result.map metrics_to_json (evaluate ~graph p))

(* --- Wire form ----------------------------------------------------------- *)

module J = Batch.Jsonl

let style_of_int = function
  | 1 -> Some Core.Mfsa.Unrestricted
  | 2 -> Some Core.Mfsa.No_self_loop
  | _ -> None

let style_to_int = function
  | Core.Mfsa.Unrestricted -> 1
  | Core.Mfsa.No_self_loop -> 2

let point_to_json p =
  J.Obj
    ([
       ("index", J.Int p.index);
       ("engine", J.String (Spec.engine_name p.engine));
       ("style", J.Int (style_to_int p.style));
       ("weights", J.String (Spec.weights_name p.weights));
       ("library", J.String (Spec.library_name p.library));
       ("widths", J.Bool p.widths);
       ("cse", J.Bool p.cse);
     ]
    @ (match p.ports with None -> [] | Some n -> [ ("ports", J.Int n) ])
    @ (match p.constr with
      | Spec.Time cs -> [ ("cs", J.Int cs) ]
      | Spec.Resource limits ->
          [
            ( "limits",
              J.Obj (List.map (fun (cls, n) -> (cls, J.Int n)) limits) );
          ])
    @ (match p.clock with None -> [] | Some c -> [ ("clock", J.Float c) ])
    @
    match p.fault with
    | None -> []
    | Some f -> [ ("fault", J.String (Harness.Fault.to_string f)) ])

let point_of_json doc =
  let ( let* ) = Result.bind in
  let req name = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "point is missing %S" name)
  in
  let* index = req "index" (J.int "index" doc) in
  let* engine =
    let* name = req "engine" (J.str "engine" doc) in
    req "engine" (Spec.engine_of_name name)
  in
  let* style =
    let* n = req "style" (J.int "style" doc) in
    req "style" (style_of_int n)
  in
  let* weights =
    let* name = req "weights" (J.str "weights" doc) in
    req "weights" (Spec.weights_of_name name)
  in
  let* library =
    let* name = req "library" (J.str "library" doc) in
    req "library" (Spec.library_of_name name)
  in
  let* constr =
    match (J.int "cs" doc, J.member "limits" doc) with
    | Some cs, None -> Ok (Spec.Time cs)
    | None, Some (J.Obj fields) ->
        let rec go acc = function
          | [] -> Ok (Spec.Resource (List.rev acc))
          | (cls, J.Int n) :: rest when n > 0 -> go ((cls, n) :: acc) rest
          | (cls, _) :: _ ->
              Error (Printf.sprintf "bad limit for class %S" cls)
        in
        go [] fields
    | _ -> Error "point needs exactly one of cs / limits"
  in
  let widths =
    match J.member "widths" doc with Some (J.Bool b) -> b | _ -> false
  in
  let cse =
    match J.member "cse" doc with Some (J.Bool b) -> b | _ -> false
  in
  let ports = J.int "ports" doc in
  let clock = J.float "clock" doc in
  let* fault =
    match J.str "fault" doc with
    | None -> Ok None
    | Some name -> (
        match Harness.Fault.of_string name with
        | Some f -> Ok (Some f)
        | None -> Error (Printf.sprintf "unknown fault %S" name))
  in
  Ok
    {
      index;
      engine;
      style;
      weights;
      constr;
      library;
      widths;
      ports;
      clock;
      cse;
      fault;
    }

let wire ~graph p =
  J.Obj
    [
      ("family", J.String "explore");
      ("graph", J.String (Dfg.Parser.to_source graph));
      ("point", point_to_json p);
    ]

let job_of_wire doc =
  let ( let* ) = Result.bind in
  let* src =
    match J.str "graph" doc with
    | Some s -> Ok s
    | None -> Error "explore wire job is missing graph source"
  in
  let* point =
    match J.member "point" doc with
    | Some p -> point_of_json p
    | None -> Error "explore wire job is missing its point"
  in
  let* graph = Result.map_error Diag.to_string (Dfg.Parser.parse src) in
  Ok (job ~graph point)
