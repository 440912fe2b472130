type case = {
  inputs : string list;
  rows : (string * Dfg.Op.kind * string list * (string * bool) list) list;
  options : Driver.options;
}

let graph_of_case case = Dfg.Graph.of_ops ~inputs:case.inputs case.rows

let case_of_graph options g =
  {
    inputs = Dfg.Graph.inputs g;
    rows =
      List.map
        (fun nd ->
          ( nd.Dfg.Graph.name,
            nd.Dfg.Graph.kind,
            nd.Dfg.Graph.args,
            nd.Dfg.Graph.guards ))
        (Dfg.Graph.nodes g);
    options;
  }

let case_size case = List.length case.rows

(* --- Failure classification ------------------------------------------- *)

(* Stable key: same key = same failure for the shrinker's oracle. Exception
   payloads (messages, node names) vary as the case shrinks, so the key
   keeps only the constructor / diagnostic code. *)
let exn_key e =
  let s = Printexc.to_string e in
  match String.index_opt s '(' with
  | Some i -> String.trim (String.sub s 0 i)
  | None -> s

type verdict =
  | Clean of Driver.outcome
  | Stopped of Diag.t  (** Expected infeasibility / bad input. *)
  | Skipped  (** Fault injection not applicable to this case. *)
  | Failed of string * string  (** Classification key, human detail. *)

let run_case ?fault case =
  match graph_of_case case with
  | Error d -> Failed ("crash:invalid-case", Diag.message d)
  | Ok g -> (
      match Driver.run ?fault ~options:case.options g with
      | exception e -> Failed ("crash:" ^ exn_key e, Printexc.to_string e)
      | o -> (
          match o.Driver.violations with
          | d :: _ ->
              Failed ("violation:" ^ d.Diag.code, Diag.to_string d)
          | [] -> (
              match (fault, o.Driver.stopped) with
              | Some f, None when not o.Driver.fault_applied ->
                  ignore f;
                  Skipped
              | Some f, None ->
                  Failed
                    ( "missed:" ^ Fault.to_string f,
                      "fault injected but no invariant fired" )
              | Some _, Some _ -> Skipped
              | None, Some d -> Stopped d
              | None, None -> Clean o)))

(* --- Shrinking --------------------------------------------------------- *)

(* Remove one row, patching references: operands naming the removed value
   are rewired to the first primary input (always present), guards on it
   are dropped. The result stays builder-valid, so the oracle re-runs the
   very pipeline that failed. *)
let remove_row case name =
  let replacement = List.hd case.inputs in
  let rows =
    List.filter_map
      (fun (n, kind, args, guards) ->
        if String.equal n name then None
        else
          Some
            ( n,
              kind,
              List.map (fun a -> if String.equal a name then replacement else a) args,
              List.filter (fun (c, _) -> not (String.equal c name)) guards ))
      case.rows
  in
  { case with rows }

let option_simplifications =
  [
    ("cse", fun o -> { o with Driver.cse = false });
    ("library", fun o -> { o with Driver.library = Problem.Default });
    ("latency", fun o -> { o with Driver.latency = None });
    ("clock", fun o -> { o with Driver.clock = None });
    ("style", fun o -> { o with Driver.style = Core.Mfsa.Unrestricted });
    ("constr", fun o -> { o with Driver.constr = Flow.Time 0 });
  ]

let shrink ~oracle ~max_attempts case =
  let attempts = ref 0 in
  let try_case c =
    incr attempts;
    !attempts <= max_attempts && oracle c
  in
  let rec drop_rows case =
    let smaller =
      List.find_map
        (fun (n, _, _, _) ->
          if List.length case.rows <= 1 then None
          else
            let c = remove_row case n in
            if try_case c then Some c else None)
        case.rows
    in
    match smaller with Some c -> drop_rows c | None -> case
  in
  let simplify_options case =
    List.fold_left
      (fun case (_, f) ->
        let o = f case.options in
        if o = case.options then case
        else
          let c = { case with options = o } in
          if try_case c then c else case)
      case option_simplifications
  in
  (* Options first (cheap wins often unlock row removals), then rows, then
     a second options pass over the smaller case. *)
  case |> simplify_options |> drop_rows |> simplify_options

(* --- Corpus ------------------------------------------------------------ *)

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '-')
    s

let write_reproducer ~dir ~seed ~kind ?fault case =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.dfg" (sanitize kind) seed) in
  let body =
    match graph_of_case case with
    | Ok g -> Dfg.Parser.to_source g
    | Error _ ->
        (* Shrunk cases are builder-valid by construction; render raw rows
           as a last resort so the reproducer is never lost. *)
        String.concat "\n"
          (("input " ^ String.concat " " case.inputs)
          :: List.map
               (fun (n, k, args, _) ->
                 Printf.sprintf "%s = %s %s" n (Dfg.Op.to_string k)
                   (String.concat " " args))
               case.rows)
        ^ "\n"
  in
  let flags = Driver.options_to_flags case.options in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "# synth fuzz reproducer\n# failure: %s\n# seed: %d\n"
        kind seed;
      (match fault with
      | Some f -> Printf.fprintf oc "# fault: %s\n" (Fault.to_string f)
      | None -> ());
      Printf.fprintf oc "# flags: %s\n" (if flags = "" then "(none)" else flags);
      output_string oc body);
  path

(* --- Random campaign --------------------------------------------------- *)

let kind_universe =
  [ Dfg.Op.Add; Dfg.Op.Sub; Dfg.Op.Mul; Dfg.Op.And; Dfg.Op.Or; Dfg.Op.Lt;
    Dfg.Op.Eq; Dfg.Op.Mov ]

let sample_spec rng ~max_ops =
  let n_kinds = 1 + Workloads.Prng.int rng (List.length kind_universe) in
  let kinds =
    List.filteri (fun i _ -> i < n_kinds)
      (List.sort
         (fun _ _ -> if Workloads.Prng.bool rng then 1 else -1)
         kind_universe)
  in
  {
    Workloads.Random_dag.ops = 1 + Workloads.Prng.int rng max_ops;
    kinds;
    inputs = 1 + Workloads.Prng.int rng 4;
    locality = 2 + Workloads.Prng.int rng 9;
    guard_prob =
      (if Workloads.Prng.int rng 4 = 0 then 0.3 else 0.0);
  }

let sample_options rng g =
  let cp = Dfg.Bounds.critical_path g in
  let cs =
    match Workloads.Prng.int rng 6 with
    | 0 | 1 | 2 -> 0 (* critical-path minimum *)
    | 3 -> cp + 1 + Workloads.Prng.int rng 3
    | 4 -> max 1 (cp - 1) (* often infeasible on purpose *)
    | _ -> cp + 5
  in
  let limits =
    if Workloads.Prng.int rng 4 = 0 then
      List.filteri
        (fun i _ -> i < 2)
        (List.map
           (fun (c, _) -> (c, 1 + Workloads.Prng.int rng 2))
           (Dfg.Graph.count_by_class g))
    else []
  in
  (* Drawn from the last field to the first, the order in which the
     record literal of the earlier untyped options evaluated them, so
     every seed keeps its campaign. *)
  let draw n = Workloads.Prng.int rng n in
  let widths = draw 4 = 0 in
  let cse = draw 3 = 0 in
  let style2 = draw 4 = 0 in
  let clock = match draw 6 with 0 -> Some 100.0 | 1 -> Some 40.0 | _ -> None in
  let latency = if draw 8 = 0 then Some (2 + draw 3) else None in
  let pipelined = draw 8 = 0 in
  let two_cycle = draw 4 = 0 in
  {
    Driver.constr = Flow.constr ~cs ~limits;
    library = Problem.library_of_flags ~two_cycle ~pipelined;
    style = (if style2 then Core.Mfsa.No_self_loop else Core.Mfsa.Unrestricted);
    latency; clock; cse; widths;
    baseline_only = false;
  }

type failure = {
  f_kind : string;
  f_seed : int;
  f_detail : string;
  f_size : int;  (** Operations left in the shrunk reproducer. *)
  f_file : string option;  (** Corpus path, when a corpus dir was given. *)
}

type report = {
  runs : int;
  clean : int;
  infeasible : int;
  degraded : int;
  skipped : int;
  failures : failure list;
}

(* --- Deterministic case generation ------------------------------------- *)

(* The whole campaign's randomness lives here: spec and options are drawn
   from one sequential PRNG, so the case list is a pure function of
   (seed, runs, max_ops) and can be generated up front — in the parent —
   while the cases themselves execute on a worker pool in any order. *)

type generated = { g_run : int; g_seed : int; g_case : (case, Diag.t) result }

let cases ?(max_ops = 12) ~runs ~seed () =
  let rng = Workloads.Prng.create seed in
  List.init runs (fun i ->
      let run = i + 1 in
      let case_seed = (seed * 1_000_003) + run in
      let spec = sample_spec rng ~max_ops in
      let g_case =
        match Workloads.Random_dag.generate ~spec ~seed:case_seed () with
        | Error d -> Error d
        | Ok g ->
            (* Options are drawn only for generable specs, matching the
               historical draw order. *)
            let options = sample_options rng g in
            Ok (case_of_graph options g)
      in
      { g_run = run; g_seed = case_seed; g_case })

(* --- Per-case execution ------------------------------------------------ *)

type classified =
  | C_clean of { c_degraded : bool }
  | C_stopped of string  (** Diagnostic code of the expected stop. *)
  | C_skipped
  | C_failed of failure

let execute ?fault ?corpus_dir g =
  match g.g_case with
  | Error d ->
      C_failed
        { f_kind = "crash:generator"; f_seed = g.g_seed;
          f_detail = Diag.to_string d; f_size = 0; f_file = None }
  | Ok case -> (
      match run_case ?fault case with
      | Clean o ->
          C_clean
            {
              c_degraded =
                o.Driver.sched_via <> Driver.Primary
                || o.Driver.bind_via <> Some Driver.Primary;
            }
      | Stopped d -> C_stopped d.Diag.code
      | Skipped -> C_skipped
      | Failed (kind, detail) ->
          let oracle c =
            match run_case ?fault c with
            | Failed (k, _) -> String.equal k kind
            | _ -> false
          in
          let small = shrink ~oracle ~max_attempts:300 case in
          let f_file =
            Option.map
              (fun dir ->
                write_reproducer ~dir ~seed:g.g_seed ~kind ?fault small)
              corpus_dir
          in
          C_failed
            { f_kind = kind; f_seed = g.g_seed; f_detail = detail;
              f_size = case_size small; f_file })

(* --- Aggregation ------------------------------------------------------- *)

(* Fold classifications in run order. The pool hands them back keyed by
   seed, so summaries are identical whether the campaign ran on 1 worker
   or 8 — completion order never leaks into the report. *)
let report_of_classified classified =
  let clean = ref 0
  and infeasible = ref 0
  and degraded = ref 0
  and skipped = ref 0
  and failures = ref []
  and runs = ref 0 in
  List.iter
    (fun c ->
      incr runs;
      match c with
      | C_clean { c_degraded } ->
          incr clean;
          if c_degraded then incr degraded
      | C_stopped _ -> incr infeasible
      | C_skipped -> incr skipped
      | C_failed f -> failures := f :: !failures)
    classified;
  {
    runs = !runs;
    clean = !clean;
    infeasible = !infeasible;
    degraded = !degraded;
    skipped = !skipped;
    failures = List.rev !failures;
  }

let campaign ?fault ?corpus_dir ?(max_ops = 12)
    ?(log = fun (_ : string) -> ()) ~runs ~seed () =
  let classified =
    List.map
      (fun g ->
        let c = execute ?fault ?corpus_dir g in
        (match c with
        | C_stopped code ->
            log
              (Printf.sprintf "run %d: stopped (%s) — expected" g.g_run code)
        | C_failed f when f.f_kind <> "crash:generator" ->
            log (Printf.sprintf "run %d: %s — shrunk to %d op(s)" g.g_run
                   f.f_kind f.f_size)
        | _ -> ());
        c)
      (cases ~max_ops ~runs ~seed ())
  in
  report_of_classified classified

let render_report r =
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "fuzz: %d run(s) — %d clean (%d degraded), %d infeasible, %d skipped, \
     %d failure(s)\n"
    r.runs r.clean r.degraded r.infeasible r.skipped
    (List.length r.failures);
  List.iter
    (fun f ->
      Printf.bprintf buf "  FAIL %s (seed %d, %d op(s)): %s\n" f.f_kind
        f.f_seed f.f_size f.f_detail;
      match f.f_file with
      | Some p -> Printf.bprintf buf "       reproducer: %s\n" p
      | None -> ())
    r.failures;
  Buffer.contents buf
