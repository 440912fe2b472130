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

module S = Harness.Setting

let settings p =
  [
    ("engine", S.to_string S.engine p.engine);
    ("library", S.to_string S.library p.library);
    ("style", S.to_string S.style p.style);
    ("weights", S.to_string S.weights p.weights);
    ("constraint", S.constraint_name p.constr);
  ]

let axes_name p =
  let opt name t = Option.fold ~none:[] ~some:(fun v -> [ name ^ S.to_string t v ]) in
  String.concat " "
    (List.map2 ( ^ ) [ ""; "lib="; "s"; "w="; "" ] (List.map snd (settings p))
    @ (if p.widths then [ "widths" ] else [])
    @ opt "ports=" S.ports p.ports
    @ opt "clock=" S.clock p.clock
    @ if p.cse then [ "cse" ] else [])

let descr p =
  axes_name p
  ^
  match p.fault with
  | None -> ""
  | Some f -> " +" ^ Harness.Fault.to_string f

let expand (spec : Spec.t) =
  let ( let* ) axis f = List.concat_map f axis in
  let points =
    let* engine = spec.Spec.engines in
    let* library = spec.Spec.libraries in
    let* widths = spec.Spec.widths in
    let* ports = spec.Spec.ports in
    let* style = spec.Spec.styles in
    let* weights = spec.Spec.weights in
    let* constr = spec.Spec.constraints in
    [ normalize
        { index = 0; engine; style; weights; constr; library; widths; ports;
          clock = spec.Spec.clock; cse = spec.Spec.cse; fault = None } ]
  in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let key = axes_name p in
      (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
    points
  |> List.mapi (fun index p ->
         { p with index; fault = List.assoc_opt index spec.Spec.inject })

(* The point's synthesis problem: the cache key digests its config, the
   evaluation runs on it. *)
let problem ~graph p =
  Harness.Problem.make ~library:p.library ?clock:p.clock ?ports:p.ports
    ~widths:p.widths graph

(* --- Content-addressed keys --------------------------------------------- *)

(* The derived configuration plus every explore-level axis, as
   [name=value] sorted by name. *)
let options_canonical ~graph p =
  let config = (problem ~graph p).Harness.Problem.config in
  let fault = Option.fold ~none:"none" ~some:Harness.Fault.to_string p.fault in
  List.sort compare
    (("config", Core.Config.canonical config)
    :: ("cse", string_of_bool p.cse)
    :: ("fault", fault)
    :: ("widths", string_of_bool p.widths)
    :: settings p)
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"

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

(* Every setting travels in its text form (a number's JSON text for the
   numeric ones) and is read back by its one rule, so the worker rebuilds
   exactly the point that was sent. *)
let point_to_json p =
  let text t v = J.String (S.to_string t v) in
  J.Obj
    ([
       ("index", J.Int p.index);
       ("engine", text S.engine p.engine);
       ("style", text S.style p.style);
       ("weights", text S.weights p.weights);
       ("library", text S.library p.library);
       ("widths", J.Bool p.widths);
       ("cse", J.Bool p.cse);
     ]
    @ (match p.ports with None -> [] | Some n -> [ ("ports", J.Int n) ])
    @ (match p.constr with
      | Spec.Time cs -> [ ("cs", J.Int cs) ]
      | Spec.Resource caps -> [ ("limits", text S.caps caps) ])
    @ (match p.clock with None -> [] | Some c -> [ ("clock", J.Float c) ])
    @
    match p.fault with
    | None -> []
    | Some f -> [ ("fault", J.String (Harness.Fault.to_string f)) ])

let point_of_json doc =
  let ( let* ) = Result.bind in
  let field t name =
    let text v = Option.value ~default:"" (J.scalar v) in
    match Option.map text (J.member name doc) with
    | None -> Ok None
    | Some raw ->
        Option.to_result (Option.map Option.some (S.of_string t raw))
          ~none:(Printf.sprintf "point field %S = %S: expected %s" name raw
                   (S.expected t raw))
  in
  let req t name =
    let* v = field t name in
    Option.to_result ~none:(Printf.sprintf "point is missing %S" name) v
  in
  let flag name =
    match J.member name doc with Some (J.Bool b) -> b | _ -> false
  in
  let* index =
    Option.to_result ~none:"point is missing \"index\"" (J.int "index" doc)
  in
  let* engine = req S.engine "engine" in
  let* style = req S.style "style" in
  let* weights = req S.weights "weights" in
  let* library = req S.library "library" in
  let* cs = field S.budget "cs" in
  let* caps = field S.caps "limits" in
  let* constr =
    match (cs, caps) with
    | Some cs, None -> Ok (Spec.Time cs)
    | None, Some caps -> Ok (Spec.Resource caps)
    | _ -> Error "point needs exactly one of cs / limits"
  in
  let* ports = field S.ports "ports" in
  let* clock = field S.clock "clock" in
  let* fault =
    match J.str "fault" doc with
    | None -> Ok None
    | Some name ->
        Option.to_result ~none:(Printf.sprintf "unknown fault %S" name)
          (Option.map Option.some (Harness.Fault.of_string name))
  in
  let widths = flag "widths" and cse = flag "cse" in
  Ok
    { index; engine; style; weights; constr; library; widths; ports; clock;
      cse; fault }

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
