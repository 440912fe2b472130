(* serve-mix: a synthesis daemon started by the benchmark and driven
   closed-loop over two connections; each connection sends its next
   request once its reply is in, as the daemon's callers do.

   The measured window sends only [schedule] requests of never-seen
   20-40-op random DAGs (MFSA, default options). Every one is a cache
   miss, so it crosses the wire, admission, the cache key and lookup, and
   a pool fork. No share of hits, edits or lint is assumed: there is no
   trace of real traffic to take one from, and the end-to-end figures do
   not depend on one. A traced run then times each other request class
   on its own, over the same two connections: cache hits (repeats of
   graphs answered in the window), one-op reschedules, lint and ping.

   The daemon runs in its own process group with a socket in a fresh
   directory, and is torn down on every exit path; a run fails if any
   process of that group survives the teardown. *)

module J = Batch.Jsonl
module P = Serve.Protocol

let now = Unix.gettimeofday

(* --- Process hygiene ----------------------------------------------------- *)

exception Interrupted

(* Daemons alive now, by pid (= process group), with their sockets. *)
let live : (int * string) list ref = ref []

(* Processes of group [pgid] that are not zombies, from /proc. *)
let group_members pgid =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
             match
               In_channel.with_open_bin
                 (Printf.sprintf "/proc/%d/stat" pid)
                 In_channel.input_all
             with
             | exception Sys_error _ -> None
             | stat -> (
                 (* Fields after the parenthesised command name. *)
                 let close = String.rindex stat ')' in
                 let rest = String.sub stat (close + 2) (String.length stat - close - 2) in
                 match String.split_on_char ' ' rest with
                 | state :: _ppid :: pgrp :: _
                   when state <> "Z" && int_of_string_opt pgrp = Some pgid ->
                     Some pid
                 | _ -> None)))

let rec waitpid_deadline pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      waitpid_deadline pid deadline
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_deadline pid deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(** SIGTERM (the daemon drains and reaps its pool), SIGKILL to the whole
    group after a bounded wait, then the pids of the group still alive. *)
let teardown pid =
  let socket = List.assoc pid !live in
  live := List.remove_assoc pid !live;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let exited = waitpid_deadline pid (now () +. 3.) in
  (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
  if not exited then ignore (waitpid_deadline pid (now () +. 3.));
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (try Unix.rmdir (Filename.dirname socket) with Unix.Unix_error _ -> ());
  let rec survivors deadline =
    match group_members pid with
    | [] -> []
    | ps when now () > deadline -> ps
    | _ ->
        Unix.sleepf 0.02;
        survivors deadline
  in
  survivors (now () +. 2.)

(** Run [f] with SIGINT/SIGTERM turned into [Interrupted]; every daemon
    still alive is torn down on the way out, whichever way that is. An
    interrupted run exits 130 without a result. *)
let guard f =
  let raise_on _ = raise Interrupted in
  Sys.set_signal Sys.sigint (Sys.Signal_handle raise_on);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle raise_on);
  let cleanup () =
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    Sys.set_signal Sys.sigterm Sys.Signal_ignore;
    List.iter (fun (pid, _) -> ignore (teardown pid)) !live
  in
  match Fun.protect ~finally:cleanup f with
  | r -> r
  | exception Interrupted ->
      prerr_endline "interrupted; daemon torn down";
      exit 130

let workers = 2

(** The daemon process: [main.exe --serve-daemon SOCKET] lands here, in a
    fresh process image, so its memory holds nothing of the benchmark's. *)
let daemon_main socket =
  let cfg =
    { (Serve.Daemon.default ~socket) with Serve.Daemon.workers; drain_timeout = 1.0 }
  in
  exit (match Serve.Daemon.run cfg with Ok () -> 0 | Error _ -> 3)

let start_daemon () =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let rec fresh k =
    let dir = Printf.sprintf ".perfbench/serve-%d-%d" (Unix.getpid ()) k in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh (k + 1)
  in
  let dir = fresh 0 in
  (* Relative, so the path stays within the socket-address limit. *)
  let socket = Filename.concat dir "d.sock" in
  flush_all ();
  match Unix.fork () with
  | 0 -> (
      try
        ignore (Unix.setsid ());
        Unix.execv Sys.executable_name [| Sys.executable_name; "--serve-daemon"; socket |]
      with _ -> Unix._exit 4)
  | pid ->
      live := (pid, socket) :: !live;
      (pid, socket)

(* --- Requests ------------------------------------------------------------ *)

type kind = Miss | Hit | Resched | Lint | Ping

type request = {
  kind : kind;
  graph : int;  (** Index into the graph texts; -1 for a ping. *)
  payload : string;  (** The request frame's JSON. *)
}

(* Requests sent during set-up, before the window. *)
let warmup = 40

(* The window's first requests, whose summed area is reported: a fixed
   prefix of the plan, so the figure depends on the seed only. The window
   runs on until all of them are answered. *)
let area_misses = 500

(* [n] distinct DFG sources of seeded 20-40-op random DAGs. *)
let fresh_graphs ~seed n =
  let rng = Workloads.Prng.create seed and seen = Hashtbl.create n in
  let rec go k acc count =
    if count = n then Array.of_list (List.rev acc)
    else
      let ops = 20 + Workloads.Prng.int rng 21 in
      let text =
        Dfg.Parser.to_source
          (Workloads.Random_dag.generate_exn
             ~spec:{ Workloads.Random_dag.default with ops }
             ~seed:((seed * 1_000_000) + k) ())
      in
      if Hashtbl.mem seen text then go (k + 1) acc count
      else begin
        Hashtbl.add seen text ();
        go (k + 1) (text :: acc) (count + 1)
      end
  in
  go 0 [] 0

let schedule ~kind ~id texts graph =
  {
    kind;
    graph;
    payload = Serve.Client.build ~op:"schedule" ~id [ ("graph", J.String texts.(graph)) ];
  }

(* One-op edit of a DFG source: one operation changes kind. *)
let edit rng text =
  let lines = String.split_on_char '\n' text in
  let ops = List.filter (fun l -> String.contains l '=') lines in
  let target = List.nth ops (Workloads.Prng.int rng (List.length ops)) in
  match String.split_on_char ' ' target with
  | name :: "=" :: op :: args ->
      let edited =
        String.concat " " (name :: "=" :: (if op = "add" then "sub" else "add") :: args)
      in
      (String.concat "\n" (List.map (fun l -> if l == target then edited else l) lines), name)
  | _ -> (text, "")

let min_cs text =
  match Dfg.Parser.parse text with
  | Ok g -> Core.Timeframe.min_cs (Core.Config.of_library (Celllib.Ncr.for_graph g)) g
  | Error _ -> 0

(* The classes a traced run times after the window, one at a time. Each
   request names a graph of the area prefix, which the window has
   answered in full, so a repeat is always a hit. *)
let class_plans ~seed texts =
  let rng = Workloads.Prng.create (seed + 1) in
  let plan kind n payload =
    Array.init n (fun i ->
        let graph =
          if kind = Ping then -1 else Workloads.Prng.int rng (warmup + area_misses)
        in
        { kind; graph; payload = payload (Printf.sprintf "c%d" i) graph })
  in
  let build op id fields = Serve.Client.build ~op ~id fields in
  let text graph = J.String texts.(graph) in
  [
    plan Hit 1000 (fun id graph -> (schedule ~kind:Hit ~id texts graph).payload);
    plan Resched 100 (fun id graph ->
        let base = texts.(graph) in
        let edited, node = edit rng base in
        build "reschedule" id
          [ ("base", J.String base); ("graph", J.String edited);
            ( "deltas",
              J.List [ J.Obj [ ("kind", J.String "changed"); ("node", J.String node) ] ] );
            ("cs", J.Int (max (min_cs base) (min_cs edited) + 1)) ]);
    plan Lint 300 (fun id graph -> build "lint" id [ ("graph", text graph) ]);
    plan Ping 300 (fun id _ -> build "ping" id []);
  ]

(* --- Closed-loop client --------------------------------------------------- *)

type conn = {
  no : int;
  fd : Unix.file_descr;
  dec : Serve.Frame.decoder;
  mutable pending : (int * float) option;  (** Request index, send time. *)
}

type answer = {
  idx : int;
  t0 : float;
  t1 : float;
  conn_no : int;
  resp : (P.response, string) result;
}

(* Connect, retrying every millisecond while the daemon starts up. *)
let connect socket no =
  let deadline = now () +. 10. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { no; fd; dec = Serve.Frame.decoder (); pending = None }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* A reply slower than this means the daemon is stuck: the run stops. *)
let reply_timeout = 60.

(** Send [requests.(from ..)] over [conns], each connection waiting for
    its reply before sending again, until [stop] says so; then wait for
    the replies in flight. Returns the index of the next unsent request
    and the answers, newest first. *)
let drive conns (requests : request array) ~from ~stop =
  let next = ref from and answers = ref [] in
  let chunk = Bytes.create 65536 in
  let fail c msg =
    (match c.pending with
    | Some (idx, t0) ->
        answers := { idx; t0; t1 = now (); conn_no = c.no; resp = Error msg } :: !answers
    | None -> ());
    c.pending <- None
  in
  let stalled = ref false in
  let rec loop () =
    Array.iter
      (fun c ->
        if c.pending = None && (not !stalled) && !next < Array.length requests
           && not (stop !next)
        then begin
          let i = !next in
          incr next;
          let t0 = now () in
          c.pending <- Some (i, t0);
          match Serve.Frame.send c.fd requests.(i).payload with
          | Ok () -> ()
          | Error d ->
              stalled := true;
              fail c (Diag.to_string d)
        end)
      conns;
    let waiting = List.filter (fun c -> c.pending <> None) (Array.to_list conns) in
    if waiting <> [] then begin
      match Unix.select (List.map (fun c -> c.fd) waiting) [] [] reply_timeout with
      | [], _, _ ->
          stalled := true;
          List.iter (fun c -> fail c "no reply within the timeout") waiting;
          loop ()
      | ready, _, _ ->
          List.iter
            (fun c ->
              if List.memq c.fd ready then
                match Unix.read c.fd chunk 0 (Bytes.length chunk) with
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception Unix.Unix_error (e, _, _) ->
                    stalled := true;
                    fail c (Unix.error_message e)
                | 0 ->
                    stalled := true;
                    fail c "daemon closed the connection"
                | n -> (
                    match Serve.Frame.feed c.dec (Bytes.sub_string chunk 0 n) with
                    | Error d ->
                        stalled := true;
                        fail c (Diag.to_string d)
                    | Ok frames ->
                        List.iter
                          (fun payload ->
                            let t1 = now () in
                            match c.pending with
                            | Some (idx, t0) ->
                                let resp =
                                  Result.map_error Diag.to_string (P.parse_response payload)
                                in
                                answers := { idx; t0; t1; conn_no = c.no; resp } :: !answers;
                                c.pending <- None
                            | None -> ())
                          frames))
            waiting;
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ();
  (!next, !answers)


(* --- In-process probes of the layers a request crosses ------------------- *)

let default_point =
  {
    Explore.Lattice.index = 0;
    engine = Explore.Spec.Mfsa;
    style = Core.Mfsa.Unrestricted;
    weights = Core.Mfsa.equal_weights;
    constr = Explore.Spec.Time 0;
    library = Explore.Spec.Default;
    widths = false;
    ports = None;
    clock = None;
    cse = false;
    fault = None;
  }

(* Mean microseconds per item of [f] over [items], median of five rounds:
   one call is too short for the clock. *)
let per_item_us name f items =
  let n = float_of_int (List.length items) in
  Span.with_ name @@ fun () ->
  Stat.median
    (List.init 5 (fun _ ->
         let t0 = now () in
         List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
         (now () -. t0) *. 1e6 /. n))

let probes texts payloads =
  let graphs =
    Array.to_list texts |> List.filteri (fun i _ -> i < 200)
    |> List.filter_map (fun t -> Result.to_option (Dfg.Parser.parse t))
  in
  let keys = List.map (fun graph -> Explore.Lattice.key ~graph default_point) graphs in
  let cache = Explore.Cache.empty () in
  let m =
    { Explore.Lattice.m_csteps = 1; m_units = 1; m_alu = 1.; m_mux = 1.; m_reg = 1;
      m_total = 1.; m_seconds = 0. }
  in
  List.iter
    (fun key ->
      Explore.Cache.insert cache
        { Explore.Cache.key; descr = "probe"; outcome = Explore.Cache.Metrics m })
    keys;
  let codec payload =
    match Serve.Frame.feed (Serve.Frame.decoder ()) (Serve.Frame.encode payload) with
    | Ok [ p ] -> Result.is_ok (P.parse_request p)
    | _ -> false
  in
  (* One fork-run-reap cycle of the pool that runs every miss. *)
  let pool = Batch.Pool.create ~workers:1 () in
  let job_ms =
    Span.with_ "batch.pool.job" @@ fun () ->
    List.init 30 (fun i ->
        let t0 = now () in
        Batch.Pool.submit pool ~deadline:10.
          (Batch.Pool.job ~id:(string_of_int i) ~seed:i ~descr:"no-op" (fun () -> Ok ""));
        let rec wait () =
          match Batch.Pool.step pool with
          | [] ->
              ignore (Unix.select (Batch.Pool.worker_fds pool) [] [] 0.0005);
              wait ()
          | _ -> ()
        in
        wait ();
        (now () -. t0) *. 1e3)
  in
  [
    ( "explore.lattice.key_us",
      per_item_us "explore.lattice.key"
        (fun graph -> Explore.Lattice.key ~graph default_point)
        graphs );
    ( "explore.cache.find_us",
      per_item_us "explore.cache.find" (Explore.Cache.find cache) keys );
    ("serve.codec_us", per_item_us "serve.codec" codec payloads);
    ("batch.pool.job_ms", Stat.median job_ms);
  ]

(* --- Measurement ---------------------------------------------------------- *)

(* The plan is sized for a rate no daemon here reaches; running out of it
   ends the window early. *)
let plan_size seconds = warmup + area_misses + int_of_float (1000. *. seconds)

let op_name = function
  | Miss | Hit -> "schedule"
  | Resched -> "reschedule"
  | Lint -> "lint"
  | Ping -> "ping"

let measure ~seed ~seconds ~trace : Compile.report =
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let stop_session (pid, conns) =
    Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
    match teardown pid with
    | [] -> ()
    | ps ->
        fail
          (Printf.sprintf "%d daemon process(es) survived the teardown: %s"
             (List.length ps) (String.concat " " (List.map string_of_int ps)))
  in
  (* Set-up: the plan, the daemon's start, the connections and the
     untimed warm-up requests; repeated, every daemon but the last torn
     down again, and [setup_s] is the median. *)
  let rec setup k =
    let t0 = now () in
    let texts = fresh_graphs ~seed (plan_size seconds) in
    let requests =
      Array.mapi (fun i _ -> schedule ~kind:Miss ~id:(string_of_int i) texts i) texts
    in
    let pid, socket = start_daemon () in
    let conns = Array.init 2 (connect socket) in
    let next, warm = drive conns requests ~from:0 ~stop:(fun i -> i >= warmup) in
    let s = (now () -. t0, warm) in
    if k = 1 then ([ s ], (texts, requests, (pid, conns), next))
    else begin
      stop_session (pid, conns);
      let rest, last = setup (k - 1) in
      (s :: rest, last)
    end
  in
  let setups, (texts, requests, ((pid, conns) as session), next) = setup Compile.setups in
  if trace then Span.start ~run:(Printf.sprintf "seed%d-pid%d" seed (Unix.getpid ()));
  let t_start = now () in
  let deadline = t_start +. seconds in
  let _, timed =
    drive conns requests ~from:next ~stop:(fun i ->
        i >= warmup + area_misses && now () >= deadline)
  in
  let window = now () -. t_start in
  let send_all plan = snd (drive conns plan ~from:0 ~stop:(fun _ -> false)) in
  let classes =
    if not trace then []
    else List.map (fun plan -> (plan, send_all plan)) (class_plans ~seed texts)
  in
  let stats =
    if not trace then J.Null
    else
      let payload = Serve.Client.build ~op:"stats" ~id:"stats" [] in
      match send_all [| { kind = Ping; graph = -1; payload } |] with
      | [ { resp = Ok r; _ } ] when r.P.r_ok -> Option.value ~default:J.Null r.P.r_payload
      | _ ->
          fail "stats request failed";
          J.Null
  in
  let rss = Stat.peak_rss_mb (string_of_int pid) in
  stop_session session;
  (* Checks, after the window: every reply a typed ok with the right
     content; every schedule reply's area equal to MFSA run here, and
     every repeat served from the cache. *)
  let expected = Hashtbl.create 1024 in
  let expect k =
    match Hashtbl.find_opt expected k with
    | Some v -> v
    | None ->
        let v =
          match Dfg.Parser.parse texts.(k) with
          | Error d -> Error (Diag.to_string d)
          | Ok g -> (
              let lib = Celllib.Ncr.for_graph g in
              let config = Core.Config.of_library lib in
              let cs = Core.Timeframe.min_cs config g in
              match Core.Mfsa.run ~config ~library:lib ~cs g with
              | Ok o -> Ok (Printf.sprintf "%.6f" o.Core.Mfsa.cost.Rtl.Cost.total)
              | Error d -> Error (Diag.to_string d))
        in
        Hashtbl.replace expected k v;
        v
  in
  let check (plan : request array) a =
    let r = plan.(a.idx) in
    let what = Printf.sprintf "request %d (%s)" a.idx (op_name r.kind) in
    match a.resp with
    | Error m -> fail (what ^ ": " ^ m)
    | Ok resp when not resp.P.r_ok ->
        fail (what ^ ": " ^ Option.fold ~none:"error" ~some:Diag.to_string resp.P.r_diag)
    | Ok resp -> (
        let payload = Option.value ~default:J.Null resp.P.r_payload in
        match r.kind with
        | Miss | Hit -> (
            if r.kind = Hit && not resp.P.r_cached then
              fail (what ^ ": a repeat of an answered graph was not served from the cache");
            match (J.float "total" payload, expect r.graph) with
            | Some t, Ok e when Printf.sprintf "%.6f" t = e -> ()
            | Some t, Ok e -> fail (Printf.sprintf "%s: area %.6f, expected %s" what t e)
            | None, _ -> fail (what ^ ": no area in the reply")
            | _, Error m -> fail (what ^ ": in-process MFSA failed: " ^ m))
        | Resched ->
            if J.str "status" payload <> Some "ok" then fail (what ^ ": status not ok")
        | Lint -> if J.int "errors" payload <> Some 0 then fail (what ^ ": lint errors")
        | Ping -> if J.member "pong" payload <> Some (J.Bool true) then fail (what ^ ": no pong"))
  in
  let t_checks = now () in
  List.iter (fun (_, warm) -> List.iter (check requests) warm) setups;
  List.iter (check requests) timed;
  List.iter (fun (plan, answers) -> List.iter (check plan) answers) classes;
  Printf.eprintf "serve-mix: %d requests in %.1fs; checks took %.1fs\n%!"
    (List.length timed) window (now () -. t_checks);
  let ms a = (a.t1 -. a.t0) *. 1e3 in
  let ok_payloads answers =
    List.filter_map
      (fun a ->
        match a.resp with
        | Ok r when r.P.r_ok -> Some (a, Option.value ~default:J.Null r.P.r_payload)
        | _ -> None)
      answers
  in
  let misses = ok_payloads timed in
  let miss_ms = List.map (fun (a, _) -> ms a) misses in
  let total (_, p) = Option.value ~default:0. (J.float "total" p) in
  let area =
    List.filter (fun (a, _) -> a.idx < warmup + area_misses) misses
    |> List.fold_left (fun acc m -> acc +. total m) 0.
  in
  let record plan answers =
    List.iter
      (fun a ->
        let cached = match a.resp with Ok r -> r.P.r_cached | Error _ -> false in
        Span.record ~tid:(a.conn_no + 1)
          ~name:("serve." ^ op_name plan.(a.idx).kind)
          ~t0:a.t0 ~t1:a.t1
          ~args:[ ("request", J.Int a.idx); ("cached", J.Bool cached) ]
          ())
      answers
  in
  record requests timed;
  List.iter (fun (plan, answers) -> record plan answers) classes;
  let stat path =
    List.fold_left (fun v k -> Option.bind v (J.member k)) (Some stats) path
    |> Fun.flip Option.bind J.to_float |> Option.value ~default:0.
  in
  let e2e =
    [
      ("setup_s", Stat.median (List.map fst setups));
      ("flow_ms.p50", Stat.median miss_ms);
      ("flow_ms.p90", Stat.quantile 0.9 miss_ms);
      ("area_um2", area);
      ("peak_rss_mb", rss);
      ("ops_per_s", float_of_int (List.length timed) /. window);
    ]
  in
  let layers =
    if not trace then []
    else
      let lat k =
        List.concat_map
          (fun (plan, answers) ->
            List.filter_map
              (fun a -> if plan.(a.idx).kind = k then Some (ms a) else None)
              answers)
          classes
      in
      let worker_ms (_, p) = 1e3 *. Option.value ~default:0. (J.float "seconds" p) in
      [
        ("serve.ping_ms.p50", Stat.median (lat Ping));
        ("serve.ping_ms.p99", Stat.quantile 0.99 (lat Ping));
        ("serve.lint_ms.p50", Stat.median (lat Lint));
        ("serve.hit_ms.p50", Stat.median (lat Hit));
        ("serve.hit_ms.p90", Stat.quantile 0.9 (lat Hit));
        ("serve.hit_ms.p99", Stat.quantile 0.99 (lat Hit));
        ("serve.miss_ms.p50", Stat.median miss_ms);
        ("serve.miss_ms.p99", Stat.quantile 0.99 miss_ms);
        ("serve.miss.worker_ms.p50", Stat.median (List.map worker_ms misses));
        ("serve.miss.worker_ms.p99", Stat.quantile 0.99 (List.map worker_ms misses));
        ( "serve.miss.overhead_ms.p50",
          Stat.median (List.map (fun ((a, _) as m) -> ms a -. worker_ms m) misses) );
        ("serve.reschedule_ms.p50", Stat.median (lat Resched));
        ("serve.cache.hit_ratio", stat [ "cache"; "hit_rate" ]);
        ("serve.shed", stat [ "shed" ]);
        ("serve.verdicts.crashed", stat [ "verdicts"; "crashed" ]);
        ("serve.verdicts.timeout", stat [ "verdicts"; "timeout" ]);
      ]
      @ probes texts
          (Array.to_list requests |> List.filteri (fun i _ -> i < 500)
          |> List.map (fun r -> r.payload))
  in
  let answered = List.concat_map snd setups @ timed @ List.concat_map snd classes in
  {
    Compile.attempted = List.length answered;
    failures = List.rev !failures;
    e2e;
    layers;
  }
