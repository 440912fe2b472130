let test name f = Alcotest.test_case name `Quick f

let exit_codes () =
  Alcotest.(check int) "usage" 2
    (Diag.exit_code (Diag.usage ~code:"x" "m"));
  Alcotest.(check int) "input" 3 (Diag.exit_code (Diag.input ~code:"x" "m"));
  Alcotest.(check int) "infeasible" 4 (Diag.exit_code (Diag.infeasible "m"));
  Alcotest.(check int) "internal" 5 (Diag.exit_code (Diag.internal "m"))

let is_bug_only_internal () =
  Alcotest.(check bool) "internal is a bug" true
    (Diag.is_bug (Diag.internal "m"));
  List.iter
    (fun d ->
      Alcotest.(check bool) ("not a bug: " ^ d.Diag.code) false
        (Diag.is_bug d))
    [ Diag.usage ~code:"u" "m"; Diag.input ~code:"i" "m";
      Diag.infeasible "m" ]

let spans () =
  let s = Diag.point ~line:3 ~col:7 in
  Alcotest.(check int) "point end col" 8 s.Diag.end_col;
  let w = Diag.span_of_word ~line:2 ~col:5 "frobnicate" in
  Alcotest.(check int) "word end col" 15 w.Diag.end_col;
  Alcotest.(check int) "word same line" 2 w.Diag.end_line

let rendering () =
  let d =
    Diag.input ~span:(Diag.span_of_word ~line:3 ~col:5 "fma")
      ~file:"foo.dfg" ~code:"parse.unknown-op" "unknown operation \"fma\""
  in
  let s = Diag.to_string d in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("renders " ^ sub) true
        (Helpers.contains ~sub s))
    [ "parse.unknown-op"; "foo.dfg:3:5"; "unknown operation" ]

let json () =
  let d =
    Diag.input ~span:(Diag.point ~line:2 ~col:1) ~file:"a.dfg"
      ~code:"parse.bad-line" "quote \"me\" and \\ backslash"
  in
  let j = Diag.to_json d in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("json has " ^ sub) true
        (Helpers.contains ~sub j))
    [ "\"code\":\"parse.bad-line\""; "\"category\":\"input\"";
      "\"line\":2"; "\"file\":\"a.dfg\"";
      "\\\"me\\\""; "\\\\ backslash" ];
  let arr = Diag.list_to_json [ d; Diag.internal "boom" ] in
  Alcotest.(check bool) "array brackets" true
    (String.length arr > 2 && arr.[0] = '[' && arr.[String.length arr - 1] = ']')

let with_file_keeps_existing () =
  let d = Diag.input ~file:"orig.dfg" ~code:"x" "m" in
  Alcotest.(check (option string)) "kept" (Some "orig.dfg")
    (Diag.with_file "other.dfg" d).Diag.file;
  let d' = Diag.input ~code:"x" "m" in
  Alcotest.(check (option string)) "attached" (Some "other.dfg")
    (Diag.with_file "other.dfg" d').Diag.file

(* No [failwith], [invalid_arg]-free error paths or [exit] may be reachable
   from library code: every failure must surface as a [Diag.t] (or, for
   programmer errors on static data, [Invalid_argument]). The lint reads
   the library sources and rejects the banned calls outside comments.

   The lints read the sources from the build tree (the test stanza
   declares them as deps): the files under [dirs], relative to the
   workspace root, whose name ends in one of [suffixes]. *)
let source_files ~suffixes dirs =
  let rec walk acc dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if entry.[0] = '.' then acc
        else if Sys.is_directory path then walk acc path
        else if List.exists (Filename.check_suffix entry) suffixes then
          path :: acc
        else acc)
      acc (Sys.readdir dir)
  in
  List.sort compare
    (List.concat_map (fun d -> walk [] (Filename.concat ".." d)) dirs)

let read_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

let strip_comments_and_strings s =
  (* Good enough for a lint: blank out (* ... *) comments (nested) and
     string literals so banned words inside them don't trip the check. *)
  let b = Bytes.of_string s in
  let n = String.length s in
  let i = ref 0 and depth = ref 0 and in_str = ref false in
  while !i < n do
    let c = s.[!i] in
    if !in_str then begin
      if c = '\\' && !i + 1 < n then begin
        Bytes.set b !i ' ';
        Bytes.set b (!i + 1) ' ';
        incr i
      end
      else begin
        if c = '"' then in_str := false;
        if c <> '\n' then Bytes.set b !i ' '
      end
    end
    else if !depth > 0 then begin
      if c = '(' && !i + 1 < n && s.[!i + 1] = '*' then incr depth
      else if c = '*' && !i + 1 < n && s.[!i + 1] = ')' then begin
        decr depth;
        Bytes.set b !i ' ';
        incr i;
        Bytes.set b !i ' '
      end;
      if !i < n && s.[!i] <> '\n' then Bytes.set b !i ' '
    end
    else if c = '(' && !i + 1 < n && s.[!i + 1] = '*' then begin
      incr depth;
      Bytes.set b !i ' '
    end
    else if c = '"' then begin
      in_str := true;
      Bytes.set b !i ' '
    end;
    incr i
  done;
  Bytes.to_string b

let contains_word ~word line =
  let wl = String.length word and n = String.length line in
  let ok_boundary j =
    (j = 0
    || not
         (match line.[j - 1] with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false))
    &&
    (j + wl >= n
    || not
         (match line.[j + wl] with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false))
  in
  let rec go j =
    if j + wl > n then false
    else if String.sub line j wl = word && ok_boundary j then true
    else go (j + 1)
  in
  go 0

let no_failwith_in_lib () =
  let offenders = ref [] in
  List.iter
    (fun path ->
      let cleaned = strip_comments_and_strings (read_file path) in
      List.iteri
        (fun lineno line ->
          if contains_word ~word:"failwith" line
             || contains_word ~word:"exit" line then
            offenders := Printf.sprintf "%s:%d" path (lineno + 1) :: !offenders)
        (String.split_on_char '\n' cleaned))
    (source_files ~suffixes:[ ".ml" ] [ "lib" ]);
  Alcotest.(check (list string)) "no failwith/exit in lib sources" []
    !offenders

(* One error type: a fallible library function returns [Diag.t], with its
   code and category set where the failure is detected. A [string] error
   is allowed only where it hides a format or is frozen: the JSON and wire
   decoders (each consumer wraps the reason once, with the position and
   code it knows), the seed oracle (compared by message), and the three
   wrappers the benchmark calls with their string types. *)
let string_results_allowed =
  [ ("batch/jsonl.mli", "parse"); ("batch/jsonl.mli", "load");
    ("batch/journal.mli", "record_of_json");
    ("batch/verdict.mli", "diag_of_json"); ("batch/verdict.mli", "of_fields");
    ("explore/cache.mli", "entry_of_json");
    ("explore/lattice.mli", "metrics_of_json");
    ("explore/lattice.mli", "point_of_json");
    ("explore/lattice.mli", "job_of_wire");
    ("reference/seed_mfs.mli", "run"); ("reference/seed_mfs.mli", "schedule");
    ("dfg/cse.mli", "eliminate"); ("rtl/controller.mli", "generate");
    ("harness/driver.mli", "colbind_datapath") ]

(* Every [string) result] in an interface, named by file and value: the
   last [val] before it. *)
let string_results () =
  let words s = String.split_on_char ' ' (String.trim s) in
  List.concat_map
    (fun path ->
      let rel =
        String.concat "/"
          (List.filteri (fun i _ -> i >= 2) (String.split_on_char '/' path))
      in
      (* Glue the signature onto one line so a type split across lines
         still reads as [string) result]. *)
      let flat =
        String.concat " "
          (List.concat_map words
             (String.split_on_char '\n'
                (strip_comments_and_strings (read_file path))))
      in
      let toks = List.filter (( <> ) "") (String.split_on_char ' ' flat) in
      let rec go value acc = function
        | "val" :: name :: rest -> go (Some name) acc (name :: rest)
        | "string)" :: r :: rest
          when String.length r >= 6 && String.sub r 0 6 = "result" ->
            let name = Option.value ~default:"?" value in
            go value ((rel, name) :: acc) rest
        | _ :: rest -> go value acc rest
        | [] -> List.rev acc
      in
      go None [] toks)
    (source_files ~suffixes:[ ".mli" ] [ "lib" ])

let only_allowlisted_string_results () =
  let show (f, v) = f ^ ":" ^ v in
  let found = string_results () in
  let outside l r = List.map show (List.filter (fun x -> not (List.mem x r)) l) in
  Alcotest.(check (list string)) "string results outside the allowlist" []
    (outside found string_results_allowed);
  Alcotest.(check (list string)) "allowlisted but gone" []
    (outside string_results_allowed found)

(* --- "Lives once" lints ----------------------------------------------------

   Each shared concept has one home; a copy elsewhere drifts from the
   fixes made to it. *)

(* [file:line:text] for every line of [files] that [re] matches, the path
   relative to the workspace root, as [grep -rn] prints it. *)
let grep ?(clean = Fun.id) re files =
  List.concat_map
    (fun path ->
      let rel = String.sub path 3 (String.length path - 3) in
      List.concat
        (List.mapi
           (fun i line ->
             match Str.search_forward re line 0 with
             | _ -> [ Printf.sprintf "%s:%d:%s" rel (i + 1) line ]
             | exception Not_found -> [])
           (String.split_on_char '\n' (clean (read_file path)))))
    files

let outside homes hits =
  List.filter
    (fun h ->
      not
        (List.exists (fun home -> String.starts_with ~prefix:(home ^ ":") h)
           homes))
    hits

(* The engine call for an engine and a constraint, the column binding of
   the engines that only schedule, and the audits with the problem's
   latency, mutex sharing, delays and widths live in Harness.Flow; a
   front end that calls them itself can pick the wrong regime, e.g. bind
   with time-constrained MFSA under --limit caps. Calls only: comments
   and strings are blanked. *)
let flow_lives_once () =
  let calls =
    Str.regexp
      "\\(Core\\.Mfsa\\.\\(run\\|run_resource\\)\
       \\|Baselines\\.List_sched\\.\\(time\\|resource\\)\
       \\|Rtl\\.Check\\.datapath\
       \\|Analysis\\.Runner\\.\\(pre\\|pre_timed\\|post_rtl\\)\
       \\|Sim\\.Equiv\\.\\(check_random\\|check_narrowing\\)\\)\\b"
  in
  let files =
    source_files ~suffixes:[ ".ml" ]
      [ "bin"; "lib/harness"; "lib/explore"; "lib/serve"; "lib/batch";
        "lib/cluster" ]
  in
  Alcotest.(check (list string)) "engine or audit called outside Flow" []
    (outside [ "lib/harness/flow.ml" ]
       (grep ~clean:strip_comments_and_strings calls files))

(* The cell-library variant, the Core.Config derivation and the
   width-scaled node delays are built by Harness.Problem alone; a front
   end that rebuilds them drifts from the other front ends (and from the
   explore/serve cache key). Raw text, comments included, over every
   .ml and .mli of the front ends (their directories hold nothing else
   but dune files). *)
let problem_setup_lives_once () =
  let setup =
    Str.regexp
      "Celllib\\.Ncr\\.\\(for_graph\\|two_cycle_multiplier\
       \\|pipelined_multiplier\\)\
       \\|Core\\.Config\\.of_library\\|Analysis\\.Ranges\\.node_delays"
  in
  let files =
    source_files ~suffixes:[ ".ml"; ".mli" ]
      [ "bin"; "lib/batch"; "lib/cluster"; "lib/explore"; "lib/harness";
        "lib/serve" ]
  in
  Alcotest.(check (list string))
    "problem setup duplicated outside lib/harness/problem.ml" []
    (outside [ "lib/harness/problem.ml" ] (grep setup files))

(* The fsynced JSONL store and the write loop live in Batch.Jsonl, the
   listener and its accept loop in Serve.Endpoint, and forked workers in
   Batch.Pool (Cluster.Chaos forks long-lived workers of its own). A copy
   elsewhere misses the fixes made to these: the torn-tail cut, the
   append lock, the refusal to replace a non-socket file. Raw text over
   every library implementation. *)
let crash_only_primitives_live_once () =
  let files = source_files ~suffixes:[ ".ml" ] [ "lib" ] in
  let found homes re = outside homes (grep (Str.regexp re) files) in
  Alcotest.(check (list string))
    "crash-only primitive duplicated outside its home" []
    (found [ "lib/batch/jsonl.ml" ]
       "O_APPEND\\|Unix\\.\\(fsync\\|write\\|write_substring\\)\\b"
    @ found [ "lib/serve/endpoint.ml" ] "Unix\\.\\(bind\\|accept\\)\\b"
    @ found [ "lib/batch/pool.ml"; "lib/cluster/chaos.ml" ] "Unix\\.fork\\b")

let suite =
  [
    test "category to exit code" exit_codes;
    test "only internal diagnostics are bugs" is_bug_only_internal;
    test "span constructors" spans;
    test "one-line rendering" rendering;
    test "JSON rendering and escaping" json;
    test "with_file keeps an existing file" with_file_keeps_existing;
    test "lint: no failwith/exit reachable from lib/" no_failwith_in_lib;
    test "lint: string errors only in the allowlisted interfaces"
      only_allowlisted_string_results;
    test "lint: engines and audits are called only by Harness.Flow"
      flow_lives_once;
    test "lint: problem setup lives once" problem_setup_lives_once;
    test "lint: crash-only primitives live once"
      crash_only_primitives_live_once;
  ]
