(* The job vocabulary (Harness.Setting) at every front end: an
   out-of-range value is rejected with the front end's own code wherever
   the setting can be given, its in-range neighbour is accepted
   everywhere, and a job crosses the manifest text and the cluster wire
   unchanged. *)

let test name f = Alcotest.test_case name `Quick f

module S = Harness.Setting
module J = Batch.Jsonl

(* --- Text forms ----------------------------------------------------------- *)

let text_forms_read_back () =
  let back t v = S.of_string t (S.to_string t v) = Some v in
  Alcotest.(check bool) "engines" true
    (List.for_all (back S.engine)
       [ Harness.Flow.Mfsa; Harness.Flow.Mfs; Harness.Flow.List_sched ]);
  Alcotest.(check bool) "libraries" true
    (List.for_all (back S.library)
       [ Harness.Problem.Default; Harness.Problem.Two_cycle;
         Harness.Problem.Pipelined ]);
  Alcotest.(check bool) "styles" true (List.for_all (back S.style) S.styles);
  Alcotest.(check bool) "caps keep their order" true
    (back S.caps [ ("+", 1); ("*", 2); ("<=", 3) ]);
  Alcotest.(check bool) "a weight beyond 12 digits" true
    (back S.weights
       { Core.Mfsa.equal_weights with Core.Mfsa.w_reg = 0.1234567890123 });
  Alcotest.(check bool) "a clock beyond 12 digits" true
    (back S.clock 123.45678901234567);
  Alcotest.(check string) "a 12-digit float keeps its %.12g bytes"
    (Printf.sprintf "%.12g" 123.4567891) (S.float_repr 123.4567891);
  Alcotest.(check string) "malformed: the form" "an integer"
    (S.expected S.latency "x");
  Alcotest.(check string) "out of range: the rule" "an integer >= 1"
    (S.expected S.latency "0")

(* --- One rule per setting, at every front end ------------------------------ *)

type front = Manifest | Spec | Request | Wire

let front_name = function
  | Manifest -> "manifest line"
  | Spec -> "spec file"
  | Request -> "serve request"
  | Wire -> "explore wire point"

(* How each front end spells a setting: the manifest flag, the spec
   directive, and the JSON field with the value's JSON type. *)
let manifest_flag = function
  | `Budget -> "--cs"
  | `Caps -> "--limit"
  | `Latency -> "--latency"
  | `Ports -> "--ports"
  | `Clock -> "--clock"

let spec_directive = function
  | `Budget -> "cs"
  | `Caps -> "limits"
  | `Latency -> "latency"
  | `Ports -> "ports"
  | `Clock -> "clock"

let json_field setting text =
  match setting with
  | `Budget -> ("cs", J.Int (int_of_string text))
  | `Caps -> ("limits", J.String text)
  | `Latency -> ("latency", J.Int (int_of_string text))
  | `Ports -> ("ports", J.Int (int_of_string text))
  | `Clock -> ("clock", J.Float (float_of_string text))

(* The explore wire point of the default diffeq lattice with one field
   set (caps replace the step budget). *)
let wire_doc setting text =
  let graph = Workloads.Classic.diffeq () in
  let p = List.hd (Explore.Lattice.expand (Explore.Spec.default ~graph:"diffeq")) in
  let name, value = json_field setting text in
  let point =
    match Explore.Lattice.point_to_json p with
    | J.Obj fields ->
        J.Obj
          (List.filter
             (fun (k, _) -> k <> name && not (name = "limits" && k = "cs"))
             fields
          @ [ (name, value) ])
    | v -> v
  in
  match Explore.Lattice.wire ~graph p with
  | J.Obj fields -> J.Obj (List.remove_assoc "point" fields @ [ ("point", point) ])
  | v -> v

(* Submit the value at a front end: [Ok ()] when accepted, else the
   rejection. *)
let submit front setting text =
  let ok r = Result.map ignore r in
  match front with
  | Manifest ->
      (* A cap is quoted for a shell, as the flag printer writes it. *)
      let text = if setting = `Caps then "'" ^ text ^ "'" else text in
      ok
        (Batch.Manifest.parse_line ~file:"jobs.txt" ~line:4
           (Printf.sprintf "diffeq %s %s" (manifest_flag setting) text))
  | Spec ->
      ok
        (Explore.Spec.parse ~file:"sweep.spec"
           (Printf.sprintf "graph diffeq\n%s %s\n" (spec_directive setting) text))
  | Request ->
      ok
        (Serve.Protocol.parse_request
           (J.to_string
              (J.Obj
                 [ ("op", J.String "schedule"); ("id", J.String "1");
                   ("spec", J.String "diffeq"); json_field setting text ])))
  | Wire ->
      (* As the socket delivers it: serialized, then re-parsed. *)
      ok
        (Cluster.Wire.to_job
           (Result.get_ok (J.parse (J.to_string (wire_doc setting text)))))

let code_of = function
  | Manifest -> "batch.manifest"
  | Spec -> "explore.spec"
  | Request -> "serve.bad-request"
  | Wire -> "cluster.bad-wire"

let all = [ Manifest; Spec; Request; Wire ]

(* (setting, out-of-range value, in-range neighbour, the front ends that
   take the setting) *)
let rows =
  [
    (`Budget, "budget", "-1", "0", all);
    (`Caps, "caps", "*=0", "*=1", all);
    (`Caps, "caps", "*=-1", "*=1", all);
    (`Caps, "caps", "=2", "*=2", all);
    (`Latency, "latency", "0", "1", [ Manifest ]);
    (`Latency, "latency", "-2", "1", [ Manifest ]);
    (`Ports, "ports", "0", "1", [ Spec; Wire ]);
    (`Clock, "clock", "0", "0.5", all);
  ]

let check_row (setting, name, bad, good, fronts) =
  test (Printf.sprintf "%s %s: rejected at every front end" name bad)
    (fun () ->
      List.iter
        (fun front ->
          let what = Printf.sprintf "%s %s via %s" name bad (front_name front) in
          (match submit front setting bad with
          | Ok () -> Alcotest.failf "%s: accepted" what
          | Error d ->
              Alcotest.(check string) (what ^ ": code") (code_of front)
                d.Diag.code;
              if front = Manifest || front = Spec then
                Alcotest.(check bool) (what ^ ": has a span") true
                  (d.Diag.span <> None));
          match submit front setting good with
          | Ok () -> ()
          | Error d ->
              Alcotest.failf "%s %s via %s: rejected: %s" name good
                (front_name front) (Diag.to_string d))
        fronts)

(* --- Jobs round-trip --------------------------------------------------------- *)

let classes = [ "*"; "+"; "-"; "<"; "<="; "="; ">="; "<>"; "&"; "mem:XB" ]

let positive_float =
  QCheck2.Gen.map
    (fun f ->
      let f = Float.abs f in
      if Float.is_finite f && f > 0. then f else 1.0)
    QCheck2.Gen.float

let options_gen =
  let open QCheck2.Gen in
  let* cs = int_bound 40 in
  let* caps =
    list_size (int_bound 3) (pair (oneofl classes) (int_range 1 5))
  in
  let* library =
    oneofl
      [ Harness.Problem.Default; Harness.Problem.Two_cycle;
        Harness.Problem.Pipelined ]
  in
  let* style = oneofl S.styles in
  let* latency = opt (int_range 1 8) in
  let* clock = opt positive_float in
  let* cse = bool in
  let* widths = bool in
  let* baseline_only = bool in
  return
    {
      Harness.Driver.constr = Harness.Flow.constr ~cs ~limits:caps;
      library;
      style;
      latency;
      clock;
      cse;
      widths;
      baseline_only;
    }

let entry_gen =
  let open QCheck2.Gen in
  let* e_spec = oneofl [ "diffeq"; "ewf"; "tseng"; "ex2" ] in
  let* e_options = options_gen in
  let* e_fault =
    opt (oneofl (Harness.Fault.all @ Harness.Fault.process))
  in
  return { Batch.Manifest.e_line = 9; e_spec; e_options; e_fault }

let entries_roundtrip =
  Helpers.qcheck ~count:400
    "manifest: an entry reads back from its line and keeps its id on the wire"
    entry_gen (fun e ->
      let line = Batch.Manifest.descr e in
      let reparsed =
        match Batch.Manifest.parse_line ~file:"m" ~line:1 line with
        | Ok (Some e') -> { e' with Batch.Manifest.e_line = e.e_line } = e
        | _ -> false
      in
      let doc = J.parse (J.to_string (Cluster.Wire.of_entry ~seed:3 e)) in
      let same_id =
        match Result.map Cluster.Wire.to_job doc with
        | Ok (Ok job) ->
            job.Batch.Pool.id = (Batch.Jobs.of_entry ~seed:3 e).Batch.Pool.id
        | _ -> false
      in
      if not (reparsed && same_id) then
        QCheck2.Test.fail_reportf "line %S: reparsed %b, same id %b" line
          reparsed same_id
      else true)

let floats_roundtrip =
  Helpers.qcheck ~count:2000 "jsonl: every finite float reads back as itself"
    QCheck2.Gen.float (fun f ->
      (not (Float.is_finite f))
      ||
      match J.parse (J.to_string (J.Float f)) with
      | Ok (J.Float g) -> Float.equal f g || (f = 0. && g = 0.)
      | _ -> false)

let suite =
  [ test "text forms read back" text_forms_read_back ]
  @ List.map check_row rows
  @ [ entries_roundtrip; floats_roundtrip ]
