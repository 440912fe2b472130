type engine = Harness.Flow.engine = Mfsa | Mfs | List_sched
type library_variant = Harness.Problem.library_variant =
  | Default | Two_cycle | Pipelined
type constraint_ = Harness.Flow.constr =
  | Time of int
  | Resource of (string * int) list

type t = {
  graph : string;
  engines : engine list;
  styles : Core.Mfsa.style list;
  weights : Core.Mfsa.weights list;
  constraints : constraint_ list;
  libraries : library_variant list;
  widths : bool list;
  ports : int option list;
  clock : float option;
  cse : bool;
  budget : int;
  inject : (int * Harness.Fault.t) list;
}

let default ~graph =
  {
    graph;
    engines = [ Mfsa ];
    styles = [ Core.Mfsa.Unrestricted ];
    weights = [ Core.Mfsa.equal_weights ];
    constraints = [ Time 0 ];
    libraries = [ Default ];
    widths = [ false ];
    ports = [ None ];
    clock = None;
    cse = false;
    budget = 0;
    inject = [];
  }

(* --- Spec files --------------------------------------------------------- *)

let err ~file ~line code msg =
  Error (Diag.input ~file ~span:(Diag.point ~line ~col:1) ~code msg)

(* One directive per line; later lines of the same directive extend the
   axis. Unknown directives and malformed values are [explore.spec]
   input errors with a file:line span. *)
let parse_line ~file ~line acc text =
  let fail msg = err ~file ~line "explore.spec" msg in
  let map_values ~what parse values k =
    let parsed = List.map parse values in
    match List.find_opt (fun (_, p) -> p = None) (List.combine values parsed) with
    | Some (raw, _) -> fail (Printf.sprintf "%s: malformed %s" raw what)
    | None -> k (List.filter_map Fun.id parsed)
  in
  let axis what t = map_values ~what (Harness.Setting.of_string t) in
  match Batch.Manifest.words text with
  | [] -> Ok acc
  | "graph" :: [ g ] -> Ok { acc with graph = g }
  | "graph" :: _ -> fail "graph: expected exactly one DFG file or builtin name"
  | "engine" :: (_ :: _ as vs) ->
      axis "engine (mfsa, mfs, list)" Harness.Setting.engine vs (fun es ->
          Ok { acc with engines = acc.engines @ es })
  | "style" :: (_ :: _ as vs) ->
      axis "style (1 or 2)" Harness.Setting.style vs (fun ss ->
          Ok { acc with styles = acc.styles @ ss })
  | "weights" :: (_ :: _ as vs) ->
      axis "weight vector (T/ALU/MUX/REG, e.g. 1/1/1/20)"
        Harness.Setting.weights vs (fun ws ->
          Ok { acc with weights = acc.weights @ ws })
  | "cs" :: (_ :: _ as vs) ->
      axis "control-step budget (an integer >= 0)" Harness.Setting.budget vs
        (fun cs ->
          let cs = List.map (fun c -> Time c) cs in
          Ok { acc with constraints = acc.constraints @ cs })
  | "limits" :: (_ :: _ as vs) ->
      axis "resource limits (CLASS=COUNT[,CLASS=COUNT...], counts >= 1)"
        Harness.Setting.caps vs (fun ls ->
          let ls = List.map (fun l -> Resource l) ls in
          Ok { acc with constraints = acc.constraints @ ls })
  | "library" :: (_ :: _ as vs) ->
      axis "library variant (default, two-cycle, pipelined)"
        Harness.Setting.library vs (fun ls ->
          Ok { acc with libraries = acc.libraries @ ls })
  | "widths" :: (_ :: _ as vs) ->
      map_values ~what:"widths switch (on or off)"
        (function "on" -> Some true | "off" -> Some false | _ -> None)
        vs
        (fun ws -> Ok { acc with widths = acc.widths @ ws })
  | "ports" :: (_ :: _ as vs) ->
      map_values ~what:"bank port count (positive int, or 'declared')"
        (function
          | "declared" -> Some None
          | v -> Option.map Option.some (Harness.Setting.(of_string ports) v))
        vs
        (fun ps -> Ok { acc with ports = acc.ports @ ps })
  | [ "clock"; v ] -> (
      match Harness.Setting.(of_string clock) v with
      | Some c -> Ok { acc with clock = Some c }
      | None -> fail (v ^ ": malformed clock period (positive ns)"))
  | [ "cse" ] -> Ok { acc with cse = true }
  | [ "budget"; v ] -> (
      match int_of_string_opt v with
      | Some b when b >= 0 -> Ok { acc with budget = b }
      | _ -> fail (v ^ ": malformed refinement budget"))
  | [ "inject"; f; idx ] -> (
      match (Harness.Fault.of_string f, int_of_string_opt idx) with
      | Some fault, Some i when Harness.Fault.is_process fault && i >= 0 ->
          Ok { acc with inject = acc.inject @ [ (i, fault) ] }
      | Some fault, Some _ when not (Harness.Fault.is_process fault) ->
          fail
            (f
           ^ ": only process faults (hang, segv) make sense for a sweep \
              point — artifact corruptions belong to 'synth lint --inject'")
      | _ -> fail "inject: expected 'inject FAULT POINT-INDEX'")
  | d :: _ ->
      fail
        (d
       ^ ": unknown directive (graph, engine, style, weights, cs, limits, \
          library, widths, ports, clock, cse, budget, inject)")

let parse ~file text =
  let lines = String.split_on_char '\n' text in
  let empty =
    { (default ~graph:"") with
      engines = []; styles = []; weights = []; constraints = []; libraries = [];
      widths = []; ports = []
    }
  in
  let rec go acc line = function
    | [] -> Ok acc
    | l :: rest -> (
        match parse_line ~file ~line acc l with
        | Error _ as e -> e
        | Ok acc -> go acc (line + 1) rest)
  in
  match go empty 1 lines with
  | Error _ as e -> e
  | Ok acc ->
      if acc.graph = "" then
        err ~file ~line:1 "explore.spec" "spec names no graph (add 'graph NAME')"
      else
        (* Unset axes collapse to the default singleton. *)
        let or_default d = function [] -> d | l -> l in
        Ok
          {
            acc with
            engines = or_default [ Mfsa ] acc.engines;
            styles = or_default [ Core.Mfsa.Unrestricted ] acc.styles;
            weights = or_default [ Core.Mfsa.equal_weights ] acc.weights;
            constraints = or_default [ Time 0 ] acc.constraints;
            libraries = or_default [ Default ] acc.libraries;
            widths = or_default [ false ] acc.widths;
            ports = or_default [ None ] acc.ports;
          }

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let body = really_input_string ic len in
    close_in ic;
    body
  with
  | body -> parse ~file:path body
  | exception Sys_error msg ->
      Error (Diag.input ~file:path ~code:"explore.spec" ("cannot read spec: " ^ msg))
