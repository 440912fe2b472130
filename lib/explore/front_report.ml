let area f = Printf.sprintf "%.0f" f

let source_name = function Engine.Evaluated -> "run" | Engine.Cached -> "cache"

let summary (o : Engine.outcome) =
  let infeasible, failed =
    List.fold_left
      (fun (i, f) (e : Engine.eval) ->
        match e.Engine.e_status with
        | Engine.Infeasible _ -> (i + 1, f)
        | Engine.Failed _ -> (i, f + 1)
        | Engine.Solved _ -> (i, f))
      (0, 0) o.Engine.evals
  in
  Printf.sprintf
    "sweep: %d seed point(s), %d refined, %d total\n\
     cache: %d hit(s); pool: %d fresh evaluation(s), %d resumed; %d \
     infeasible, %d failed\n"
    o.Engine.seed_points o.Engine.refined_points
    (o.Engine.seed_points + o.Engine.refined_points)
    o.Engine.cache_hits o.Engine.fresh o.Engine.resumed infeasible failed

let failure_lines (o : Engine.outcome) =
  List.map
    (fun ((p : Lattice.point), why) ->
      Printf.sprintf "failed: %s: %s" (Lattice.descr p) why)
    (Engine.failures o)

let table (o : Engine.outcome) =
  let rows =
    List.map
      (fun ((p : Lattice.point), (m : Lattice.metrics)) ->
        [
          string_of_int p.Lattice.index;
          Lattice.descr p;
          string_of_int m.Lattice.m_csteps;
          string_of_int m.Lattice.m_units;
          area m.Lattice.m_alu;
          area m.Lattice.m_mux;
          string_of_int m.Lattice.m_reg;
          area m.Lattice.m_total;
        ])
      (Engine.front o)
  in
  let solved = List.length (Engine.solved o) in
  Report.Table.render
    ~aligns:
      Report.Table.
        [ Right; Left; Right; Right; Right; Right; Right; Right ]
    ~header:
      [ "#"; "point"; "csteps"; "FUs"; "ALU um2"; "MUX um2"; "REG";
        "total um2" ]
    rows
  ^ Printf.sprintf "front: %d non-dominated of %d solved point(s)\n"
      (List.length rows) solved

let csv_header =
  [
    "index"; "key"; "engine"; "library"; "style"; "weights"; "constraint";
    "status"; "csteps"; "units"; "alu_um2"; "mux_um2"; "reg"; "total_um2";
    "front"; "source";
  ]

(* Every evaluated point, one row each — infeasible and failed points
   carry empty metric cells so the file stays joinable with cache entries
   and bench rows by [key]. *)
let csv (o : Engine.outcome) =
  let front = Engine.front_indices o in
  let rows =
    List.map
      (fun (e : Engine.eval) ->
        let p = e.Engine.e_point in
        let status, metric_cells =
          match e.Engine.e_status with
          | Engine.Solved m ->
              ( "ok",
                [
                  string_of_int m.Lattice.m_csteps;
                  string_of_int m.Lattice.m_units;
                  area m.Lattice.m_alu;
                  area m.Lattice.m_mux;
                  string_of_int m.Lattice.m_reg;
                  area m.Lattice.m_total;
                ] )
          | Engine.Infeasible code ->
              ("infeasible:" ^ code, [ ""; ""; ""; ""; ""; "" ])
          | Engine.Failed why -> ("failed:" ^ why, [ ""; ""; ""; ""; ""; "" ])
        in
        (string_of_int p.Lattice.index :: e.Engine.e_key
         :: List.map snd (Lattice.settings p))
        @ (status :: metric_cells)
        @ [
            (if Hashtbl.mem front p.Lattice.index then "yes" else "no");
            source_name e.Engine.e_source;
          ])
      o.Engine.evals
  in
  Report.Table.to_csv ~header:csv_header rows

(* --- Dominance graph ----------------------------------------------------- *)

let dot_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* One node per solved point; front nodes filled. Each dominated point
   receives exactly one edge, from its first dominating front member in
   front order — a spanning overlay rather than the full O(n^2)
   dominance relation, which stays readable on dense sweeps. *)
let dot (o : Engine.outcome) =
  let front = Engine.front o in
  let front_idx = Engine.front_indices o in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph front {\n  rankdir=LR;\n  node [shape=box];\n";
  List.iter
    (fun ((p : Lattice.point), (m : Lattice.metrics)) ->
      let on_front = Hashtbl.mem front_idx p.Lattice.index in
      Buffer.add_string buf
        (Printf.sprintf
           "  p%d [label=\"%s\\ncs=%d alu=%s mux=%s reg=%d\"%s];\n"
           p.Lattice.index
           (dot_escape (Lattice.descr p))
           m.Lattice.m_csteps (area m.Lattice.m_alu) (area m.Lattice.m_mux)
           m.Lattice.m_reg
           (if on_front then " style=filled fillcolor=\"#cfe2f3\"" else ""))
    )
    (Engine.solved o);
  List.iter
    (fun ((p : Lattice.point), (m : Lattice.metrics)) ->
      if not (Hashtbl.mem front_idx p.Lattice.index) then
        match
          List.find_opt
            (fun (_, fm) ->
              Pareto.dominates ~objectives:Lattice.objectives fm m)
            front
        with
        | Some ((fp : Lattice.point), _) ->
            Buffer.add_string buf
              (Printf.sprintf "  p%d -> p%d [label=\"dominates\"];\n"
                 fp.Lattice.index p.Lattice.index)
        | None -> ())
    (Engine.solved o);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- JSON ----------------------------------------------------------------- *)

let json (o : Engine.outcome) =
  let front = Engine.front_indices o in
  let point_json (e : Engine.eval) =
    let p = e.Engine.e_point in
    let base =
      [
        ("index", Batch.Jsonl.Int p.Lattice.index);
        ("key", Batch.Jsonl.String e.Engine.e_key);
        ("descr", Batch.Jsonl.String (Lattice.descr p));
      ]
      @ List.map (fun (k, v) -> (k, Batch.Jsonl.String v)) (Lattice.settings p)
      @ [
          ("front", Batch.Jsonl.Bool (Hashtbl.mem front p.Lattice.index));
          ("source", Batch.Jsonl.String (source_name e.Engine.e_source));
        ]
    in
    let status =
      match e.Engine.e_status with
      | Engine.Solved m ->
          [ ("status", Batch.Jsonl.String "ok");
            ("metrics", Lattice.metrics_to_json m) ]
      | Engine.Infeasible code ->
          [ ("status", Batch.Jsonl.String "infeasible");
            ("code", Batch.Jsonl.String code) ]
      | Engine.Failed why ->
          [ ("status", Batch.Jsonl.String "failed");
            ("why", Batch.Jsonl.String why) ]
    in
    Batch.Jsonl.Obj (base @ status)
  in
  Batch.Jsonl.to_string
    (Batch.Jsonl.Obj
       [
         ("seed_points", Batch.Jsonl.Int o.Engine.seed_points);
         ("refined_points", Batch.Jsonl.Int o.Engine.refined_points);
         ("cache_hits", Batch.Jsonl.Int o.Engine.cache_hits);
         ("fresh", Batch.Jsonl.Int o.Engine.fresh);
         ("resumed", Batch.Jsonl.Int o.Engine.resumed);
         ("interrupted", Batch.Jsonl.Bool o.Engine.interrupted);
         ("points", Batch.Jsonl.List (List.map point_json o.Engine.evals));
       ])
