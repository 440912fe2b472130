open Explore

let test name f = Alcotest.test_case name `Quick f

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mfs-explore-%d-%s" (Unix.getpid ()) name)

let rm path = try Sys.remove path with Sys_error _ -> ()

(* --- Pareto properties -------------------------------------------------- *)

(* Points are their own objective vectors; a small integer-valued value
   universe makes ties and dominance chains frequent. *)
let id_objectives (v : float array) = v

let vec_gen =
  QCheck2.Gen.(array_repeat 3 (map float_of_int (int_bound 4)))

let vecs_gen = QCheck2.Gen.(list_size (int_range 0 25) vec_gen)

let front_vectors l =
  List.sort compare
    (Pareto.members (Pareto.of_list ~objectives:id_objectives l))

let dominance_antisymmetric =
  Helpers.qcheck ~count:300 "dominance is irreflexive and antisymmetric"
    QCheck2.Gen.(pair vec_gen vec_gen)
    (fun (a, b) ->
      let dom = Pareto.dominates ~objectives:id_objectives in
      (not (dom a a)) && not (dom a b && dom b a))

let front_minimal =
  Helpers.qcheck ~count:300 "front members never dominate each other"
    vecs_gen
    (fun l ->
      let front = front_vectors l in
      let dom = Pareto.dominates ~objectives:id_objectives in
      List.for_all
        (fun a -> List.for_all (fun b -> not (dom a b)) front)
        front)

let front_complete =
  Helpers.qcheck ~count:300
    "every point is on the front or dominated by a member" vecs_gen
    (fun l ->
      let t = Pareto.of_list ~objectives:id_objectives l in
      let dom = Pareto.dominates ~objectives:id_objectives in
      List.for_all
        (fun x ->
          Pareto.mem t x
          || List.exists (fun m -> dom m x) (Pareto.members t))
        l)

let front_order_independent =
  Helpers.qcheck ~count:300 "front is independent of insertion order"
    vecs_gen
    (fun l ->
      let rotated = match l with [] -> [] | x :: rest -> rest @ [ x ] in
      front_vectors l = front_vectors (List.rev l)
      && front_vectors l = front_vectors rotated)

let dominates_arity () =
  match
    Pareto.dominates ~objectives:id_objectives [| 1. |] [| 1.; 2. |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

(* --- Config canonicalization (satellite: stable option hashing) --------- *)

let test_config () =
  Core.Config.of_library (Celllib.Ncr.for_graph (Workloads.Classic.diffeq ()))

let is_hex s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let canonical_fields s =
  List.filter_map
    (fun part ->
      match String.index_opt part '=' with
      | Some i -> Some (String.sub part 0 i)
      | None -> None)
    (String.split_on_char ';' s)

let config_canonical_sorted () =
  let c = canonical_fields (Core.Config.canonical (test_config ())) in
  Alcotest.(check (list string))
    "field names, sorted"
    [ "chaining"; "delays"; "functional_latency"; "mem_ports"; "node_delay";
      "pipelined"; "share_mutex" ]
    c

let config_hash_stable () =
  let a = test_config () and b = test_config () in
  Alcotest.(check string) "same inputs, same hash" (Core.Config.hash a)
    (Core.Config.hash b);
  Alcotest.(check bool) "hex digest" true (is_hex (Core.Config.hash a))

let config_hash_sensitive () =
  let c = test_config () in
  let flipped = { c with Core.Config.share_mutex = not c.Core.Config.share_mutex } in
  Alcotest.(check bool) "share_mutex flip changes the hash" false
    (Core.Config.hash c = Core.Config.hash flipped);
  let chained =
    { c with
      Core.Config.chaining =
        Some { Core.Config.prop_delay = (fun _ -> 40.0); clock = 100.0 } }
  in
  Alcotest.(check bool) "chaining changes the hash" false
    (Core.Config.hash c = Core.Config.hash chained)

(* --- Spec parsing -------------------------------------------------------- *)

let spec_text =
  "# a comment\n\
   graph ewf\n\
   engine mfsa mfs\n\
   style 1 2\n\
   weights 1/1/1/1 1/1/1/20\n\
   cs 17 19\n\
   limits *=1,+=2\n\
   library default two-cycle\n\
   clock 100\n\
   budget 4\n\
   inject hang 3\n"

let spec_parses () =
  match Spec.parse ~file:"test.spec" spec_text with
  | Error d -> Alcotest.failf "parse failed: %s" (Diag.to_string d)
  | Ok s ->
      Alcotest.(check string) "graph" "ewf" s.Spec.graph;
      Alcotest.(check int) "engines" 2 (List.length s.Spec.engines);
      Alcotest.(check int) "styles" 2 (List.length s.Spec.styles);
      Alcotest.(check int) "weights" 2 (List.length s.Spec.weights);
      Alcotest.(check int) "constraints" 3 (List.length s.Spec.constraints);
      Alcotest.(check int) "libraries" 2 (List.length s.Spec.libraries);
      Alcotest.(check (option (float 0.001))) "clock" (Some 100.0) s.Spec.clock;
      Alcotest.(check int) "budget" 4 s.Spec.budget;
      Alcotest.(check bool) "inject" true
        (s.Spec.inject = [ (3, Harness.Fault.Hang) ])

let spec_defaults () =
  match Spec.parse ~file:"t" "graph diffeq\n" with
  | Error d -> Alcotest.failf "parse failed: %s" (Diag.to_string d)
  | Ok s ->
      Alcotest.(check bool) "defaults" true
        (s.Spec.engines = [ Spec.Mfsa ]
        && s.Spec.styles = [ Core.Mfsa.Unrestricted ]
        && s.Spec.weights = [ Core.Mfsa.equal_weights ]
        && s.Spec.constraints = [ Spec.Time 0 ]
        && s.Spec.libraries = [ Spec.Default ]
        && s.Spec.budget = 0)

let spec_error code text =
  match Spec.parse ~file:"t" text with
  | Ok _ -> Alcotest.failf "accepted: %s" (String.escaped text)
  | Error (d : Diag.t) ->
      Alcotest.(check string) "code" code d.Diag.code;
      Alcotest.(check int) "input exit" 3 (Diag.exit_code d)

let spec_rejects () =
  spec_error "explore.spec" "graph ewf\nweights 1/1/1\n";
  spec_error "explore.spec" "graph ewf\nweights 1/1/1/-2\n";
  spec_error "explore.spec" "graph ewf\nfrobnicate 3\n";
  spec_error "explore.spec" "graph ewf\ninject corrupt-start 0\n";
  spec_error "explore.spec" "graph ewf\ncs seventeen\n";
  spec_error "explore.spec" "engine mfsa\n" (* no graph *)

(* --- Lattice ------------------------------------------------------------- *)

let spec_of_text text =
  Helpers.check_okd "spec" (Spec.parse ~file:"t" text)

let expand_dedups_non_mfsa () =
  (* Style and weights only steer MFSA: for mfs the 2x2 style/weight block
     collapses to one point per constraint. *)
  let s = spec_of_text "graph diffeq\nengine mfs\nstyle 1 2\nweights 1/1/1/1 1/1/1/20\ncs 4 6\n" in
  let points = Lattice.expand s in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iteri
    (fun i (p : Lattice.point) ->
      Alcotest.(check int) "contiguous indices" i p.Lattice.index)
    points

let expand_attaches_faults () =
  let s = spec_of_text "graph diffeq\ncs 4 6\ninject segv 1\n" in
  match Lattice.expand s with
  | [ p0; p1 ] ->
      Alcotest.(check bool) "p0 clean" true (p0.Lattice.fault = None);
      Alcotest.(check bool) "p1 segv" true
        (p1.Lattice.fault = Some Harness.Fault.Segv)
  | l -> Alcotest.failf "expected 2 points, got %d" (List.length l)

let keys_content_addressed () =
  let g = Workloads.Classic.diffeq () in
  let s = spec_of_text "graph diffeq\nstyle 1 2\ncs 4\n" in
  match Lattice.expand s with
  | [ p1; p2 ] ->
      Alcotest.(check bool) "hex key" true (is_hex (Lattice.key ~graph:g p1));
      Alcotest.(check string) "key is deterministic"
        (Lattice.key ~graph:g p1) (Lattice.key ~graph:g p1);
      Alcotest.(check bool) "style changes the key" false
        (Lattice.key ~graph:g p1 = Lattice.key ~graph:g p2);
      (* The index is bookkeeping, not content. *)
      Alcotest.(check string) "index does not change the key"
        (Lattice.key ~graph:g p1)
        (Lattice.key ~graph:g { p1 with Lattice.index = 99 })
  | l -> Alcotest.failf "expected 2 points, got %d" (List.length l)

(* A banked graph with bounded inputs, so the library, widths, ports and
   clock axes all reach the derived configuration. *)
let pinned_graph =
  "input u i0 i1\n\
   range u 0 255\n\
   range i0 0 0\n\
   range i1 1 1\n\
   array S 2 bank SB\n\
   mem SB ports 2\n\
   s1 = ld S i0\n\
   s2 = ld S i1\n\
   m = * s1 u\n\
   y = + m s2\n"

(* Literal digests: a changed key silently cold-starts every explore and
   serve cache, so any change to them must be deliberate. *)
let keys_pinned_off_default_axes () =
  let graph = Helpers.check_okd "parse" (Dfg.Parser.parse pinned_graph) in
  List.iter
    (fun (axis, expected) ->
      match Lattice.expand (spec_of_text ("graph g\n" ^ axis ^ "\n")) with
      | [ p ] -> Alcotest.(check string) axis expected (Lattice.key ~graph p)
      | l -> Alcotest.failf "%s: expected 1 point, got %d" axis (List.length l))
    [
      ("library two-cycle", "43a5940b9cd17c6ae8d16459feeb8a08");
      ("library pipelined", "26c5d46a395d4f2cbfa8301921dd5989");
      ("widths on", "bb5d804471c46a8f4fe5b6008ba70aa3");
      ("ports 1", "4366dd3dec61c77ec5b4b110730e4c86");
      ("clock 100", "e7dfa021fce8421ba7fb26b11a8cc1b1");
      ("limits *=1,+=1", "9734d9f7a6e7591f7b5f475fc88eb47a");
      ("engine mfs", "5258ddce31fcf1746dbc8a8d10097723");
      ("engine list", "01cbb36c0b9eba889018bfba45487584");
    ]

let evaluate_solves_diffeq () =
  let g = Workloads.Classic.diffeq () in
  let s = spec_of_text "graph diffeq\ncs 4\n" in
  let p = List.hd (Lattice.expand s) in
  let m = Helpers.check_okd "evaluate" (Lattice.evaluate ~graph:g p) in
  Alcotest.(check int) "csteps" 4 m.Lattice.m_csteps;
  Alcotest.(check bool) "has units" true (m.Lattice.m_units > 0);
  Alcotest.(check bool) "alu area positive" true (m.Lattice.m_alu > 0.);
  Alcotest.(check bool) "total covers alu+mux" true
    (m.Lattice.m_total >= m.Lattice.m_alu +. m.Lattice.m_mux)

let evaluate_reports_infeasible () =
  let g = Workloads.Classic.diffeq () in
  let s = spec_of_text "graph diffeq\nengine list\ncs 1\n" in
  let p = List.hd (Lattice.expand s) in
  let d = Helpers.check_errd "evaluate" (Lattice.evaluate ~graph:g p) in
  Alcotest.(check int) "infeasible exit" 4 (Diag.exit_code d)

(* --- Cache --------------------------------------------------------------- *)

let sample_metrics =
  {
    Lattice.m_csteps = 17; m_units = 3; m_alu = 16890.0; m_mux = 6700.0;
    m_reg = 26; m_total = 40490.0; m_seconds = 0.015;
  }

let entry_roundtrip () =
  List.iter
    (fun e ->
      match
        Result.bind
          (Batch.Jsonl.parse (Cache.entry_to_json e))
          Cache.entry_of_json
      with
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg
      | Ok e' -> Alcotest.(check bool) "round-trips" true (e = e'))
    [
      { Cache.key = "k1"; descr = "mfsa T=17";
        outcome = Cache.Metrics sample_metrics };
      { Cache.key = "k2"; descr = "mfsa T=2";
        outcome = Cache.Infeasible "mfsa.no-schedule" };
    ]

let cache_store_roundtrip () =
  let path = tmp_path "cache.jsonl" in
  rm path;
  let w = Helpers.check_okd "open" (Cache.open_writer path) in
  Helpers.check_okd "append" (Cache.append w
    { Cache.key = "a"; descr = "p0"; outcome = Cache.Metrics sample_metrics });
  Helpers.check_okd "append" (Cache.append w
    { Cache.key = "b"; descr = "p1"; outcome = Cache.Infeasible "x.y" });
  (* Duplicate key: the later entry must win on load. *)
  Helpers.check_okd "append" (Cache.append w
    { Cache.key = "b"; descr = "p1-later"; outcome = Cache.Infeasible "x.z" });
  Cache.close w;
  let t = Helpers.check_okd "load" (Cache.load path) in
  Alcotest.(check int) "two keys" 2 (Cache.size t);
  (match Cache.find t "a" with
  | Some { Cache.outcome = Cache.Metrics m; _ } ->
      Alcotest.(check bool) "metrics survive" true (m = sample_metrics)
  | _ -> Alcotest.fail "key a missing or wrong outcome");
  (match Cache.find t "b" with
  | Some { Cache.descr = "p1-later"; outcome = Cache.Infeasible "x.z"; _ } -> ()
  | _ -> Alcotest.fail "later duplicate did not win");
  rm path

let cache_tolerates_torn_tail () =
  let path = tmp_path "torn.jsonl" in
  let oc = open_out path in
  output_string oc
    (Cache.entry_to_json
       { Cache.key = "a"; descr = "p0"; outcome = Cache.Infeasible "c" }
    ^ "\n{\"key\":\"b\",\"descr\":");
  close_out oc;
  let t = Helpers.check_okd "load" (Cache.load path) in
  Alcotest.(check int) "torn tail dropped" 1 (Cache.size t);
  rm path

(* A torn tail is cut when the writer opens, so the next entry is not
   glued onto it. *)
let cache_torn_tail_cut_on_open () =
  let path = tmp_path "torn-reopen.jsonl" in
  rm path;
  let append keys =
    let w = Helpers.check_okd "open" (Cache.open_writer path) in
    List.iter
      (fun k ->
        Helpers.check_okd "append"
          (Cache.append w
             { Cache.key = k; descr = "p"; outcome = Cache.Infeasible "c" }))
      keys;
    Cache.close w
  in
  append [ "a"; "b" ];
  Helpers.tear_last_line path;
  append [ "c" ];
  let t = Helpers.check_okd "load" (Cache.load path) in
  Alcotest.(check (list bool)) "first and third entries" [ true; false; true ]
    (List.map (fun k -> Cache.peek t k <> None) [ "a"; "b"; "c" ]);
  rm path

let cache_rejects_garbage () =
  let path = tmp_path "garbage.jsonl" in
  let oc = open_out path in
  output_string oc "{\"not\":\"an entry\"}\n{\"x\":1}\n";
  close_out oc;
  (match Cache.load path with
  | Ok _ -> Alcotest.fail "garbage cache accepted"
  | Error (d : Diag.t) ->
      Alcotest.(check string) "code" "explore.cache" d.Diag.code);
  rm path

let cache_missing_is_empty () =
  let t = Helpers.check_okd "load" (Cache.load (tmp_path "nonexistent")) in
  Alcotest.(check int) "empty" 0 (Cache.size t)

(* --- Cache admission control (LRU cap, pins, counters) ------------------- *)

let mini_entry key =
  { Cache.key; descr = "d:" ^ key; outcome = Cache.Infeasible "x.y" }

let cache_lru_evicts_least_recent () =
  let t = Cache.empty ~max_entries:2 () in
  Cache.insert t (mini_entry "a");
  Cache.insert t (mini_entry "b");
  (* Touch "a" so "b" becomes the least recently used. *)
  ignore (Cache.find t "a");
  Cache.insert t (mini_entry "c");
  Alcotest.(check bool) "a survives (recently touched)" true
    (Cache.peek t "a" <> None);
  Alcotest.(check bool) "b evicted (least recent)" true
    (Cache.peek t "b" = None);
  Alcotest.(check bool) "c resident" true (Cache.peek t "c" <> None);
  let s = Cache.stats t in
  Alcotest.(check int) "entries at cap" 2 s.Cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions

let cache_counts_hits_and_misses () =
  let t = Cache.empty () in
  Cache.insert t (mini_entry "a");
  ignore (Cache.find t "a");
  ignore (Cache.find t "a");
  ignore (Cache.find t "absent");
  ignore (Cache.peek t "absent");
  (* peek is silent *)
  let s = Cache.stats t in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "no evictions unbounded" 0 s.Cache.evictions

let cache_pins_shield_in_flight_keys () =
  let t = Cache.empty ~max_entries:1 () in
  Cache.pin t "a";
  Cache.pin t "b";
  Cache.insert t (mini_entry "a");
  Cache.insert t (mini_entry "b");
  (* Every resident key pinned: the cap is soft, nothing is evicted. *)
  Alcotest.(check int) "soft cap holds both" 2 (Cache.size t);
  Alcotest.(check int) "no evictions while pinned" 0
    (Cache.stats t).Cache.evictions;
  Cache.unpin t "a";
  Cache.insert t (mini_entry "c");
  Alcotest.(check bool) "unpinned a now evictable" true
    (Cache.peek t "a" = None);
  Alcotest.(check bool) "pinned b survives" true (Cache.peek t "b" <> None);
  (* Refcounting: double pin needs double unpin. *)
  Cache.pin t "b";
  Cache.unpin t "b";
  Alcotest.(check bool) "still pinned after one unpin" true (Cache.pinned t "b");
  Cache.unpin t "b";
  Alcotest.(check bool) "fully unpinned" false (Cache.pinned t "b")

let cache_load_respects_cap () =
  let path = tmp_path "capped-cache.jsonl" in
  rm path;
  let w = Helpers.check_okd "open" (Cache.open_writer path) in
  List.iter
    (fun k -> Helpers.check_okd "append" (Cache.append w (mini_entry k)))
    [ "a"; "b"; "c" ];
  Cache.close w;
  let t = Helpers.check_okd "load" (Cache.load ~max_entries:2 path) in
  Alcotest.(check int) "only the cap survives replay" 2 (Cache.size t);
  Alcotest.(check bool) "oldest dropped" true (Cache.peek t "a" = None);
  Alcotest.(check bool) "recent kept" true
    (Cache.peek t "b" <> None && Cache.peek t "c" <> None);
  let s = Cache.stats t in
  Alcotest.(check (list int)) "replay is history, not traffic" [ 0; 0 ]
    [ s.Cache.hits; s.Cache.misses ];
  rm path

(* Two processes appending to one cache file concurrently — the daemon's
   shared-store discipline (O_APPEND, one write per whole line) must leave
   no torn or interleaved lines for the reader. *)
let cache_concurrent_writers_no_torn_lines () =
  let path = tmp_path "shared-cache.jsonl" in
  rm path;
  let per_child = 50 in
  let child tag =
    match Unix.fork () with
    | 0 ->
        let w =
          match Cache.open_writer path with
          | Ok w -> w
          | Error _ -> Unix._exit 1
        in
        for i = 0 to per_child - 1 do
          let e =
            {
              Cache.key = Printf.sprintf "%s-%03d" tag i;
              descr = String.make 120 tag.[0];
              outcome = Cache.Infeasible "mfsa.no-schedule";
            }
          in
          match Cache.append w e with
          | Ok () -> ()
          | Error _ -> Unix._exit 1
        done;
        Cache.close w;
        Unix._exit 0
    | pid -> pid
  in
  let pids = [ child "a"; child "b" ] in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "cache writer child failed")
    pids;
  let t = Helpers.check_okd "load survives concurrency" (Cache.load path) in
  Alcotest.(check int) "every line intact and distinct" (2 * per_child)
    (Cache.size t);
  rm path

(* --- Refine -------------------------------------------------------------- *)

let mk_point index weights =
  let s = spec_of_text "graph diffeq\ncs 4\n" in
  { (List.hd (Lattice.expand s)) with Lattice.index; weights }

let w a b c d = { Core.Mfsa.w_time = a; w_alu = b; w_mux = c; w_reg = d }

let mid_weights_mean () =
  let m = Refine.mid_weights (w 1. 1. 1. 1.) (w 1. 3. 1. 20.) in
  Alcotest.(check bool) "component-wise mean" true (m = w 1. 2. 1. 10.5)

let metrics_with csteps total =
  { sample_metrics with Lattice.m_csteps = csteps; m_total = total }

let bisect_respects_budget () =
  let g = Workloads.Classic.diffeq () in
  let front =
    [
      (mk_point 0 (w 1. 1. 1. 1.), metrics_with 4 40000.);
      (mk_point 1 (w 1. 1. 1. 20.), metrics_with 6 30000.);
      (mk_point 2 (w 1. 5. 1. 1.), metrics_with 8 20000.);
    ]
  in
  let seen _ = false in
  Alcotest.(check int) "budget 0" 0
    (List.length (Refine.bisect ~front ~seen ~graph:g ~next_index:3 ~budget:0));
  let one = Refine.bisect ~front ~seen ~graph:g ~next_index:3 ~budget:1 in
  Alcotest.(check int) "budget 1" 1 (List.length one);
  let cands = Refine.bisect ~front ~seen ~graph:g ~next_index:3 ~budget:10 in
  Alcotest.(check bool) "bounded by pairs" true (List.length cands <= 4);
  List.iteri
    (fun i (p : Lattice.point) ->
      Alcotest.(check int) "indices continue" (3 + i) p.Lattice.index;
      Alcotest.(check bool) "no fault" true (p.Lattice.fault = None))
    cands;
  (* Everything already seen: nothing proposed. *)
  Alcotest.(check int) "saturated" 0
    (List.length
       (Refine.bisect ~front ~seen:(fun _ -> true) ~graph:g ~next_index:3
          ~budget:10))

(* --- Engine: sweep, cache warm-up, acceptance ---------------------------- *)

let count_status o =
  List.fold_left
    (fun (s, i, f) (e : Engine.eval) ->
      match e.Engine.e_status with
      | Engine.Solved _ -> (s + 1, i, f)
      | Engine.Infeasible _ -> (s, i + 1, f)
      | Engine.Failed _ -> (s, i, f + 1))
    (0, 0, 0) o.Engine.evals

let tiny_sweep_then_warm_cache () =
  let cache = tmp_path "sweep-cache.jsonl" in
  rm cache;
  let spec = spec_of_text "graph diffeq\ncs 4 6\nweights 1/1/1/1 1/1/1/20\n" in
  let o = Helpers.check_okd "run" (Engine.run ~cache ~deadline:30. spec) in
  Alcotest.(check int) "seed points" 4 o.Engine.seed_points;
  Alcotest.(check int) "cold cache" 0 o.Engine.cache_hits;
  Alcotest.(check int) "all fresh" 4 o.Engine.fresh;
  let s, i, f = count_status o in
  Alcotest.(check (list int)) "all solved" [ 4; 0; 0 ] [ s; i; f ];
  Alcotest.(check bool) "front non-empty" true (Engine.front o <> []);
  (* Second run: every point replayed from the cache, zero evaluations. *)
  let o2 = Helpers.check_okd "rerun" (Engine.run ~cache ~deadline:30. spec) in
  Alcotest.(check int) "warm cache hits all" 4 o2.Engine.cache_hits;
  Alcotest.(check int) "zero fresh" 0 o2.Engine.fresh;
  Alcotest.(check bool) "same front" true
    (List.map snd (Engine.front o2) = List.map snd (Engine.front o));
  List.iter
    (fun (e : Engine.eval) ->
      Alcotest.(check bool) "sourced from cache" true
        (e.Engine.e_source = Engine.Cached))
    o2.Engine.evals;
  rm cache

let infeasible_points_are_cached () =
  let cache = tmp_path "infeasible-cache.jsonl" in
  rm cache;
  (* cs 2 is below diffeq's critical path: an expected infeasibility. *)
  let spec = spec_of_text "graph diffeq\nengine list\ncs 2 4\n" in
  let o = Helpers.check_okd "run" (Engine.run ~cache ~deadline:30. spec) in
  let s, i, f = count_status o in
  Alcotest.(check (list int)) "one solved, one infeasible" [ 1; 1; 0 ]
    [ s; i; f ];
  let o2 = Helpers.check_okd "rerun" (Engine.run ~cache ~deadline:30. spec) in
  Alcotest.(check int) "infeasible hit too" 2 o2.Engine.cache_hits;
  Alcotest.(check int) "zero fresh" 0 o2.Engine.fresh;
  rm cache

let refinement_densifies () =
  let cache = tmp_path "refine-cache.jsonl" in
  rm cache;
  let spec =
    spec_of_text
      "graph diffeq\nweights 1/1/1/1 1/8/1/1 1/1/1/20\ncs 4 6\nbudget 3\n"
  in
  let o = Helpers.check_okd "run" (Engine.run ~cache ~deadline:30. spec) in
  Alcotest.(check bool) "refined within budget" true
    (o.Engine.refined_points <= 3);
  Alcotest.(check int) "evals cover seed + refined"
    (o.Engine.seed_points + o.Engine.refined_points)
    (List.length o.Engine.evals);
  rm cache

(* The issue's acceptance bar: an elliptic-filter sweep spanning time- and
   resource-constrained regimes yields at least 4 non-dominated points
   with distinct objective vectors. *)
let ewf_front_spans_regimes () =
  let spec =
    spec_of_text
      "graph ewf\ncs 17 28\nlimits *=1,+=1 *=2,+=2 *=3,+=3\n"
  in
  let o =
    Helpers.check_okd "run" (Engine.run ~workers:2 ~deadline:60. spec)
  in
  let front = Engine.front o in
  let distinct =
    List.sort_uniq compare
      (List.map
         (fun (_, (m : Lattice.metrics)) ->
           (m.Lattice.m_csteps, m.Lattice.m_alu))
         front)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct (csteps, ALU) front points >= 4"
       (List.length distinct))
    true
    (List.length distinct >= 4);
  let time_pts, resource_pts =
    List.partition
      (fun ((p : Lattice.point), _) ->
        match p.Lattice.constr with Spec.Time _ -> true | Spec.Resource _ -> false)
      front
  in
  Alcotest.(check bool) "both regimes on the front" true
    (time_pts <> [] && resource_pts <> [])

(* --- Front_report -------------------------------------------------------- *)

let report_renders () =
  let spec = spec_of_text "graph diffeq\ncs 4 6\n" in
  let o = Helpers.check_okd "run" (Engine.run ~deadline:30. spec) in
  let table = Front_report.table o in
  Alcotest.(check bool) "table has the header" true
    (Helpers.contains ~sub:"csteps" table);
  Alcotest.(check bool) "table counts the front" true
    (Helpers.contains ~sub:"non-dominated of" table);
  let csv = Front_report.csv o in
  Alcotest.(check int) "csv rows = header + evals"
    (1 + List.length o.Engine.evals)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  let dot = Front_report.dot o in
  Alcotest.(check bool) "dot wrapper" true
    (Helpers.contains ~sub:"digraph front" dot);
  match Batch.Jsonl.parse (Front_report.json o) with
  | Error e -> Alcotest.failf "json invalid: %s" e
  | Ok doc ->
      Alcotest.(check (option int)) "json seed count" (Some 2)
        (Batch.Jsonl.int "seed_points" doc)

(* --- Report.Table.to_csv (satellite) ------------------------------------- *)

let csv_quoting () =
  let out =
    Report.Table.to_csv
      ~header:[ "a"; "b" ]
      [ [ "plain"; "with,comma" ]; [ "with \"quote\""; "line\nbreak" ] ]
  in
  Alcotest.(check string) "RFC-4180 quoting"
    "a,b\nplain,\"with,comma\"\n\"with \"\"quote\"\"\",\"line\nbreak\"\n"
    out;
  Alcotest.(check string) "no header" "x,y\n"
    (Report.Table.to_csv [ [ "x"; "y" ] ])

let suite =
  [
    dominance_antisymmetric;
    front_minimal;
    front_complete;
    front_order_independent;
    test "dominates rejects arity mismatches" dominates_arity;
    test "Config.canonical sorts its fields" config_canonical_sorted;
    test "Config.hash is stable" config_hash_stable;
    test "Config.hash tracks option changes" config_hash_sensitive;
    test "spec: full file parses" spec_parses;
    test "spec: unset axes collapse to defaults" spec_defaults;
    test "spec: malformed lines are explore.spec errors" spec_rejects;
    test "lattice: non-MFSA points deduplicate" expand_dedups_non_mfsa;
    test "lattice: inject attaches by index" expand_attaches_faults;
    test "lattice: keys are content-addressed" keys_content_addressed;
    test "lattice: keys pinned off the default axes" keys_pinned_off_default_axes;
    test "lattice: evaluate solves diffeq" evaluate_solves_diffeq;
    test "lattice: evaluate reports infeasibility" evaluate_reports_infeasible;
    test "cache: entries round-trip" entry_roundtrip;
    test "cache: store round-trips, later entries win" cache_store_roundtrip;
    test "cache: torn trailing line dropped" cache_tolerates_torn_tail;
    test "cache: a torn tail is cut before the next append"
      cache_torn_tail_cut_on_open;
    test "cache: garbage is an explore.cache error" cache_rejects_garbage;
    test "cache: missing file is empty" cache_missing_is_empty;
    test "cache: LRU cap evicts the least recent" cache_lru_evicts_least_recent;
    test "cache: hit/miss counters" cache_counts_hits_and_misses;
    test "cache: pinned keys never evicted" cache_pins_shield_in_flight_keys;
    test "cache: load respects the resident cap" cache_load_respects_cap;
    test "cache: concurrent writers leave no torn lines"
      cache_concurrent_writers_no_torn_lines;
    test "refine: midpoint weights are means" mid_weights_mean;
    test "refine: budget and indices respected" bisect_respects_budget;
    test "engine: sweep then warm cache evaluates zero" tiny_sweep_then_warm_cache;
    test "engine: infeasible points are cached" infeasible_points_are_cached;
    test "engine: refinement stays within budget" refinement_densifies;
    test "engine: ewf front spans both regimes" ewf_front_spans_regimes;
    test "report: table, csv, dot and json render" report_renders;
    test "table: to_csv quotes per RFC 4180" csv_quoting;
  ]
