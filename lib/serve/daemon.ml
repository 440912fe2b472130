module Jsonl = Batch.Jsonl
module Pool = Batch.Pool
module Journal = Batch.Journal
module Cache = Explore.Cache
module Lattice = Explore.Lattice
module P = Protocol

type config = {
  socket : string;
  tcp_port : int option;
  workers : int;
  deadline : float;
  heap_words : int option;
  queue_limit : int;
  max_conns : int;
  max_frame : int;
  read_timeout : float;
  drain_timeout : float;
  cache_path : string option;
  cache_max : int option;
  journal_path : string option;
  log : string -> unit;
}

let default ~socket =
  {
    socket;
    tcp_port = None;
    workers = 4;
    deadline = 30.;
    heap_words = None;
    queue_limit = 64;
    max_conns = 128;
    max_frame = Jsonl.default_max_document_bytes;
    read_timeout = 10.;
    drain_timeout = 5.;
    cache_path = None;
    cache_max = None;
    journal_path = None;
    log = (fun (_ : string) -> ());
  }

(* Single-domain process: a ref written from the signal handler and
   polled by the loop, same discipline as Batch.Pool. *)
let drain_requested = ref false

(* --- Connections -------------------------------------------------------- *)

type conn = {
  c_conn : Conn.t;
  mutable c_last_read : float;
  mutable c_eof : bool;  (* peer half-closed; finish writes, then close *)
  mutable c_outstanding : int;  (* responses owed by in-flight work *)
  mutable c_refused : bool;  (* sent an oversized frame; input is dropped *)
}

(* --- Daemon state ------------------------------------------------------- *)

type waiter = { w_conn : conn; w_id : string }

type cache_as = No_cache | Cache_point of string  (* entry descr *)

type inflight = { mutable waiters : waiter list; cache_as : cache_as }

type state = {
  cfg : config;
  pool : Pool.t;
  adm : (Pool.job * float) Admission.t;
  cache : Cache.t;
  cache_writer : Cache.writer option;
  journal : Journal.writer option;
  stats : Stats.t;
  mutable conns : conn list;
  inflight : (string, inflight) Hashtbl.t;  (* job id -> *)
  graphs : (string, Dfg.Graph.t) Hashtbl.t;  (* parsed-DFG memo *)
  mutable draining : bool;
  mutable drain_at : float;
}

let respond c payload = Conn.send c.c_conn payload

let respond_ok st c s =
  Stats.note_ok st.stats;
  respond c s

let respond_error st c s =
  Stats.note_error st.stats;
  respond c s

(* --- Graph resolution --------------------------------------------------- *)

let resolve_graph st source ~cse =
  let tag =
    (match source with
    | P.Inline s -> "inline|" ^ s
    | P.Named n -> "named|" ^ n)
    ^ if cse then "|cse" else ""
  in
  let memo_key = Batch.Jobs.digest tag in
  match Hashtbl.find_opt st.graphs memo_key with
  | Some g -> Ok g
  | None ->
      let parsed =
        match source with
        | P.Inline s -> Dfg.Parser.parse s
        | P.Named n -> Batch.Manifest.load_graph n
      in
      let parsed =
        if cse then Result.bind parsed Dfg.Cse.run else parsed
      in
      Result.map
        (fun g ->
          if Hashtbl.length st.graphs > 128 then Hashtbl.reset st.graphs;
          Hashtbl.replace st.graphs memo_key g;
          g)
        parsed

(* --- Verdicts to responses ---------------------------------------------- *)

let verdict_response ~id = function
  | Batch.Verdict.Done payload -> (
      match Jsonl.parse payload with
      | Ok doc -> P.ok_response ~id doc
      | Error _ ->
          P.error_response ~id
            (Diag.internal ~code:"serve.bad-payload"
               "worker returned an unparsable payload"))
  | Batch.Verdict.Rejected d -> P.error_response ~id d
  | Batch.Verdict.Timeout ->
      P.error_response ~id
        (Diag.partial ~code:"serve.deadline"
           "request exceeded its wall-clock deadline and was killed")
  | Batch.Verdict.Oom ->
      P.error_response ~id
        (Diag.partial ~code:"serve.heap-ceiling"
           "request exceeded the worker heap ceiling")
  | Batch.Verdict.Crashed _ as v ->
      P.error_response ~id
        (Diag.internal ~code:"serve.worker-crashed"
           ("worker " ^ Batch.Verdict.describe v))

(* --- Request handling --------------------------------------------------- *)

let cached_entry_response ~id (e : Cache.entry) =
  match e.Cache.outcome with
  | Cache.Metrics m -> P.ok_response ~id ~cached:true (Lattice.metrics_to_json m)
  | Cache.Infeasible code ->
      P.error_response ~id
        (Diag.infeasible ~code "point is infeasible (cached)")

(* Enqueue one pool-bound request, coalescing on the job id: a second
   request for work already queued or running just joins its waiters. *)
let enqueue st conn ~id ~cache_as ~deadline job =
  let w = { w_conn = conn; w_id = id } in
  match Hashtbl.find_opt st.inflight job.Pool.id with
  | Some infl ->
      infl.waiters <- w :: infl.waiters;
      conn.c_outstanding <- conn.c_outstanding + 1
  | None ->
      if st.draining then
        respond_error st conn
          (P.error_response ~id
             (Diag.unavailable ~code:"serve.draining"
                "daemon is draining; retry against a fresh instance"))
      else begin
        match
          Admission.try_admit st.adm
            ~in_flight:(Pool.in_flight st.pool)
            ~workers:st.cfg.workers (job, deadline)
        with
        | `Shed retry_after ->
            respond_error st conn
              (P.error_response ~id ~retry_after
                 (Diag.unavailable ~code:"serve.overloaded"
                    (Printf.sprintf
                       "queue is full (%d deep); retry in ~%.1fs"
                       (Admission.depth st.adm) retry_after)))
        | `Admitted ->
            Hashtbl.replace st.inflight job.Pool.id
              { waiters = [ w ]; cache_as };
            conn.c_outstanding <- conn.c_outstanding + 1;
            Cache.pin st.cache job.Pool.id
      end

let effective_deadline st (env : P.envelope) =
  match env.P.req_deadline with
  | Some d -> Float.min d st.cfg.deadline
  | None -> st.cfg.deadline

let handle_lint st conn ~id source clock =
  match resolve_graph st source ~cse:false with
  | Error d -> respond_error st conn (P.error_response ~id d)
  | Ok graph ->
      let config = (Harness.Problem.make ?clock graph).Harness.Problem.config in
      let findings = Analysis.Dfg_lint.check ~config graph in
      let errors = Analysis.Finding.errors findings in
      let warnings = Analysis.Finding.warnings findings in
      let finding_json severity (f : Analysis.Finding.t) =
        Jsonl.Obj
          [
            ("severity", Jsonl.String severity);
            ("code", Jsonl.String f.Analysis.Finding.diag.Diag.code);
            ("message", Jsonl.String f.Analysis.Finding.diag.Diag.message);
            ( "nodes",
              Jsonl.List
                (List.map (fun n -> Jsonl.String n) f.Analysis.Finding.nodes)
            );
          ]
      in
      respond_ok st conn
        (P.ok_response ~id
           (Jsonl.Obj
              [
                ("errors", Jsonl.Int (List.length errors));
                ("warnings", Jsonl.Int (List.length warnings));
                ( "findings",
                  Jsonl.List
                    (List.map (finding_json "error") errors
                    @ List.map (finding_json "warning") warnings) );
              ]))

let reschedule_job ~job_id ~base ~edited ~deltas ~cs =
  let ( let* ) = Result.bind in
  Batch.Jobs.generic ~id:job_id ~seed:0 ~descr:"reschedule" (fun () ->
      let* base_g = Dfg.Parser.parse base in
      let* edited_g = Dfg.Parser.parse edited in
      let spec = Core.Mfs.Time { cs } in
      let* old = Core.Mfs.run base_g spec in
      let* out, stats = Core.Mfs.reschedule ~old edited_g deltas spec in
      Ok
        (Jsonl.Obj
           [
             ("status", Jsonl.String "ok");
             ( "csteps",
               Jsonl.Int out.Core.Mfs.schedule.Core.Schedule.cs );
             ("replaced", Jsonl.Int stats.Core.Mfs.replaced);
             ("kept", Jsonl.Int stats.Core.Mfs.kept);
             ("fell_back", Jsonl.Bool stats.Core.Mfs.fell_back);
             ("restarts", Jsonl.Int out.Core.Mfs.restarts);
           ]))

let explore_job ~job_id ~spec_text ~cache_path ~deadline =
  let ( let* ) = Result.bind in
  Batch.Jobs.generic ~id:job_id ~seed:0 ~descr:"explore" (fun () ->
      let* spec = Explore.Spec.parse ~file:"<request>" spec_text in
      let* o = Explore.Engine.run ~workers:1 ?cache:cache_path ~deadline spec in
      let front = Explore.Engine.front o in
      Ok
        (Jsonl.Obj
           [
             ("status", Jsonl.String "ok");
             ( "points",
               Jsonl.Int
                 (o.Explore.Engine.seed_points
                 + o.Explore.Engine.refined_points) );
             ("evaluated", Jsonl.Int o.Explore.Engine.fresh);
             ("cache_hits", Jsonl.Int o.Explore.Engine.cache_hits);
             ("front", Jsonl.Int (List.length front));
             ("interrupted", Jsonl.Bool o.Explore.Engine.interrupted);
           ]))

let handle_request st conn (env : P.envelope) =
  let id = env.P.req_id in
  Stats.note_request st.stats (P.request_op_name env.P.request);
  match env.P.request with
  | P.Ping ->
      respond_ok st conn (P.ok_response ~id (Jsonl.Obj [ ("pong", Jsonl.Bool true) ]))
  | P.Health ->
      let c = Cache.stats st.cache in
      respond_ok st conn
        (P.ok_response ~id
           (Jsonl.Obj
              [
                ( "status",
                  Jsonl.String (if st.draining then "draining" else "ok") );
                ("pid", Jsonl.Int (Unix.getpid ()));
                ("queue_depth", Jsonl.Int (Admission.depth st.adm));
                ("in_flight", Jsonl.Int (Pool.in_flight st.pool));
                ("connections", Jsonl.Int (List.length st.conns));
                ("workers", Jsonl.Int 0);
                ( "cache",
                  Jsonl.Obj
                    [
                      ("hits", Jsonl.Int c.Cache.hits);
                      ("misses", Jsonl.Int c.Cache.misses);
                      ("evictions", Jsonl.Int c.Cache.evictions);
                    ] );
              ]))
  | P.Stats ->
      respond_ok st conn
        (P.ok_response ~id
           (Stats.to_json st.stats
              ~queue_depth:(Admission.depth st.adm)
              ~in_flight:(Pool.in_flight st.pool)
              ~connections:(List.length st.conns)
              ~shed:(Admission.shed_count st.adm)
              ~workers:[]
              ~cache:(Cache.stats st.cache)))
  | P.Lint { source; clock } -> handle_lint st conn ~id source clock
  | P.Schedule { source; point } -> (
      match resolve_graph st source ~cse:point.Lattice.cse with
      | Error d -> respond_error st conn (P.error_response ~id d)
      | Ok graph -> (
          let key = Lattice.key ~graph point in
          match Cache.find st.cache key with
          | Some entry ->
              Stats.note_ok st.stats;
              respond conn (cached_entry_response ~id entry)
          | None ->
              enqueue st conn ~id
                ~cache_as:(Cache_point (Lattice.descr point))
                ~deadline:(effective_deadline st env)
                (Lattice.job ~graph point)))
  | P.Reschedule { base; edited; deltas; cs } ->
      let src = function P.Inline s -> s | P.Named n -> "named|" ^ n in
      let delta_name = function
        | Core.Mfs.Op_added n -> "a:" ^ n
        | Core.Mfs.Op_removed n -> "r:" ^ n
        | Core.Mfs.Op_changed n -> "c:" ^ n
      in
      let job_id =
        Batch.Jobs.digest
          (String.concat "|"
             ([ "reschedule"; src base; src edited; string_of_int cs ]
             @ List.map delta_name deltas))
      in
      enqueue st conn ~id ~cache_as:No_cache
        ~deadline:(effective_deadline st env)
        (reschedule_job ~job_id ~base:(src base) ~edited:(src edited) ~deltas
           ~cs)
  | P.Explore { spec_text } ->
      let job_id = Batch.Jobs.digest ("explore-request|" ^ spec_text) in
      enqueue st conn ~id ~cache_as:No_cache
        ~deadline:(effective_deadline st env)
        (explore_job ~job_id ~spec_text ~cache_path:st.cfg.cache_path
           ~deadline:st.cfg.deadline)

(* --- Completions -------------------------------------------------------- *)

let journal_completion st (c : Pool.completion) =
  Option.iter
    (fun w ->
      match Journal.append w (Pool.journal_record ~final:true c) with
      | Ok () -> ()
      | Error d -> st.cfg.log (Diag.to_string d))
    st.journal

let cache_completion st ~key ~cache_as verdict =
  match cache_as with
  | No_cache -> ()
  | Cache_point descr ->
      Explore.Engine.record st.cache st.cache_writer ~log:st.cfg.log ~key
        ~descr
        (Explore.Engine.status_of_verdict verdict)

let complete st (c : Pool.completion) =
  let key = c.Pool.c_job.Pool.id in
  Stats.note_verdict st.stats c.Pool.c_verdict;
  Admission.note_service st.adm c.Pool.c_seconds;
  journal_completion st c;
  match Hashtbl.find_opt st.inflight key with
  | None -> ()  (* waiters already answered (drain) *)
  | Some infl ->
      Hashtbl.remove st.inflight key;
      cache_completion st ~key ~cache_as:infl.cache_as c.Pool.c_verdict;
      List.iter
        (fun w ->
          w.w_conn.c_outstanding <- w.w_conn.c_outstanding - 1;
          let resp = verdict_response ~id:w.w_id c.Pool.c_verdict in
          (match c.Pool.c_verdict with
          | Batch.Verdict.Done _ -> Stats.note_ok st.stats
          | _ -> Stats.note_error st.stats);
          respond w.w_conn resp)
        (List.rev infl.waiters);
      Cache.unpin st.cache key

(* Answer every outstanding waiter with a typed diagnostic (drain
   timeout, shutdown) and forget the work. *)
let fail_all_inflight st d =
  Hashtbl.iter
    (fun key infl ->
      List.iter
        (fun w ->
          w.w_conn.c_outstanding <- w.w_conn.c_outstanding - 1;
          respond_error st w.w_conn (P.error_response ~id:w.w_id d))
        (List.rev infl.waiters);
      Cache.unpin st.cache key)
    st.inflight;
  Hashtbl.reset st.inflight;
  let rec drop () =
    match Admission.pop st.adm with Some _ -> drop () | None -> ()
  in
  drop ()

(* --- Startup ------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Crash-only: a store whose lines fail to parse (the error points at a
   line) is moved aside and the daemon starts cold; a path that cannot
   be read at all is a startup error. *)
let load_cache cfg =
  match cfg.cache_path with
  | None -> Ok (Cache.empty ?max_entries:cfg.cache_max ())
  | Some path -> (
      match Cache.load ?max_entries:cfg.cache_max path with
      | Ok c ->
          cfg.log
            (Printf.sprintf "cache: %d entr%s warm from %s" (Cache.size c)
               (if Cache.size c = 1 then "y" else "ies")
               path);
          Ok c
      | Error d when d.Diag.span = None -> Error d
      | Error d ->
          let aside = path ^ ".corrupt" in
          (try Sys.rename path aside with Sys_error _ -> ());
          cfg.log (Diag.to_string d);
          cfg.log
            (Printf.sprintf "cache: corrupt store moved to %s; starting cold"
               aside);
          Ok (Cache.empty ?max_entries:cfg.cache_max ()))

(* The writers open after [load_cache], so once a corrupt store is moved
   aside new entries start a fresh PATH instead of landing in
   PATH.corrupt. *)
let open_stores cfg =
  let open_opt open_writer = function
    | None -> Ok None
    | Some path -> Result.map Option.some (open_writer path)
  in
  let* cache = load_cache cfg in
  let* cache_writer = open_opt Cache.open_writer cfg.cache_path in
  match open_opt Journal.open_writer cfg.journal_path with
  | Ok journal -> Ok (cache, cache_writer, journal)
  | Error d ->
      Option.iter Cache.close cache_writer;
      Error d

(* --- Main loop ----------------------------------------------------------- *)

let run ?(ready = fun () -> ()) cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  drain_requested := false;
  let handle = Sys.Signal_handle (fun _ -> drain_requested := true) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle;
  let endpoints =
    Endpoint.Unix_path cfg.socket
    :: Option.to_list (Option.map (fun p -> Endpoint.Tcp p) cfg.tcp_port)
  in
  let* listeners = Endpoint.listen ~code:"serve.bind" endpoints in
  let* cache, cache_writer, journal =
    Result.map_error
      (fun d ->
        List.iter2 Endpoint.close endpoints listeners;
        d)
      (open_stores cfg)
  in
  let st =
    {
      cfg;
      pool = Pool.create ~workers:cfg.workers ?heap_words:cfg.heap_words ();
      adm = Admission.create ~limit:cfg.queue_limit;
      cache;
      cache_writer;
      journal;
      stats = Stats.create ();
      conns = [];
      inflight = Hashtbl.create 32;
      graphs = Hashtbl.create 32;
      draining = false;
      drain_at = 0.;
    }
  in
  let listeners = ref listeners in
  cfg.log
    (Printf.sprintf "listening on %s%s (workers=%d deadline=%.0fs queue=%d)"
       cfg.socket
       (match cfg.tcp_port with
       | None -> ""
       | Some p -> Printf.sprintf " and 127.0.0.1:%d" p)
       cfg.workers cfg.deadline cfg.queue_limit);
  ready ();
  let overloaded_conn fd =
    (* Accepted over max_conns: one typed frame, then close, so the
       accept queue never silently starves. Best effort — the frame is
       small enough to fit the socket buffer. *)
    Unix.set_nonblock fd;
    ignore
      (Frame.send fd
         (P.error_response ~id:""
            (Diag.unavailable ~code:"serve.overloaded"
               "connection limit reached; retry shortly")));
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let accept_ready ready_fds =
    List.iter
      (fun lfd ->
        if List.memq lfd ready_fds then
          List.iter
            (fun fd ->
              if List.length st.conns >= cfg.max_conns then overloaded_conn fd
              else
                st.conns <-
                  {
                    c_conn = Conn.create ~max_frame:cfg.max_frame fd;
                    c_last_read = Unix.gettimeofday ();
                    c_eof = false;
                    c_outstanding = 0;
                    c_refused = false;
                  }
                  :: st.conns)
            (Endpoint.accept lfd))
      !listeners
  in
  let read_conn c =
    if Conn.alive c.c_conn && not c.c_eof then begin
      let frames, status = Conn.read c.c_conn in
      List.iter
        (fun payload ->
          if Conn.alive c.c_conn then
            match P.parse_request ~max_bytes:cfg.max_frame payload with
            | Error d -> respond_error st c (P.error_response ~id:"" d)
            | Ok env -> handle_request st c env)
        frames;
      match status with
      | Conn.Open ->
          if not c.c_refused then c.c_last_read <- Unix.gettimeofday ()
      | Conn.Eof ->
          (* Half-close: the peer is done sending but may still be
             reading. Keep the connection until owed responses and
             buffered bytes are out. *)
          c.c_eof <- true;
          if
            (Conn.has_partial c.c_conn && not c.c_refused)
            || (c.c_outstanding = 0 && not (Conn.has_output c.c_conn))
          then Conn.close c.c_conn
      | Conn.Too_large d ->
          (* Oversized frame: the stream cannot re-sync. One typed
             response, then linger, dropping input until the peer closes
             or read_timeout passes: closing now would fail a peer still
             writing the frame with EPIPE before it reads the refusal. *)
          respond_error st c (P.error_response ~id:"" d);
          c.c_refused <- true;
          c.c_last_read <- Unix.gettimeofday ()
      | Conn.Failed -> Conn.close c.c_conn
    end
  in
  let dispatch () =
    let rec go () =
      if Pool.load st.pool < cfg.workers then
        match Admission.pop st.adm with
        | None -> ()
        | Some (job, deadline) ->
            Pool.submit st.pool ~deadline job;
            go ()
    in
    go ()
  in
  let enforce_read_timeouts now =
    List.iter
      (fun c ->
        if
          Conn.alive c.c_conn
          && (not c.c_eof)
          && (Conn.has_partial c.c_conn || c.c_refused)
          && now -. c.c_last_read > cfg.read_timeout
        then begin
          if not c.c_refused then
            respond_error st c
              (P.error_response ~id:""
                 (Diag.input ~code:"serve.read-timeout"
                    (Printf.sprintf
                       "no progress on a partial frame for %.0fs"
                       cfg.read_timeout)));
          Conn.close c.c_conn
        end)
      st.conns
  in
  let prune_conns () =
    List.iter
      (fun c ->
        if c.c_eof && c.c_outstanding = 0 && not (Conn.has_output c.c_conn)
        then Conn.close c.c_conn)
      st.conns;
    st.conns <- List.filter (fun c -> Conn.alive c.c_conn) st.conns
  in
  let rec loop () =
    if !drain_requested && not st.draining then begin
      st.draining <- true;
      st.drain_at <- Unix.gettimeofday () +. cfg.drain_timeout;
      List.iter2 Endpoint.close endpoints !listeners;
      listeners := [];
      cfg.log "drain: stopped accepting; finishing in-flight work"
    end;
    let finished =
      st.draining
      && Admission.depth st.adm = 0
      && Pool.load st.pool = 0
      && not (List.exists (fun c -> Conn.has_output c.c_conn) st.conns)
    in
    if not finished then begin
      let rfds =
        !listeners
        @ List.filter_map
            (fun c ->
              if Conn.alive c.c_conn && not c.c_eof then Some (Conn.fd c.c_conn)
              else None)
            st.conns
        @ Pool.worker_fds st.pool
      in
      let wfds =
        List.filter_map
          (fun c ->
            if Conn.has_output c.c_conn then Some (Conn.fd c.c_conn) else None)
          st.conns
      in
      let ready_r, ready_w =
        match Unix.select rfds wfds [] 0.05 with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      accept_ready ready_r;
      List.iter
        (fun c -> if List.memq (Conn.fd c.c_conn) ready_r then read_conn c)
        st.conns;
      dispatch ();
      List.iter (complete st) (Pool.step st.pool);
      List.iter
        (fun c ->
          if List.memq (Conn.fd c.c_conn) ready_w then Conn.flush c.c_conn)
        st.conns;
      let now = Unix.gettimeofday () in
      enforce_read_timeouts now;
      if st.draining && now > st.drain_at && Pool.load st.pool > 0 then begin
        cfg.log "drain: timeout; killing in-flight work";
        List.iter (complete st) (Pool.kill_all st.pool);
        fail_all_inflight st
          (Diag.unavailable ~code:"serve.draining"
             "daemon shut down before this request completed")
      end;
      prune_conns ();
      loop ()
    end
  in
  loop ();
  (* Drained: flush what remains (bounded), then tear down. *)
  let flush_deadline = Unix.gettimeofday () +. 1.0 in
  let rec final_flush () =
    let pending =
      List.filter_map
        (fun c -> if Conn.has_output c.c_conn then Some c.c_conn else None)
        st.conns
    in
    if pending <> [] && Unix.gettimeofday () < flush_deadline then begin
      (match Unix.select [] (List.map Conn.fd pending) [] 0.1 with
      | _, ready, _ ->
          List.iter
            (fun c -> if List.memq (Conn.fd c) ready then Conn.flush c)
            pending
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      final_flush ()
    end
  in
  final_flush ();
  List.iter (fun c -> Conn.close c.c_conn) st.conns;
  Option.iter Cache.close st.cache_writer;
  Option.iter Journal.close st.journal;
  cfg.log "drain: complete";
  Ok ()
