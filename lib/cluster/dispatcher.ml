module P = Serve.Protocol
module Conn = Serve.Conn
module Endpoint = Serve.Endpoint
module Pool = Batch.Pool
module Jsonl = Batch.Jsonl

type config = {
  endpoints : Endpoint.t list;
  local_workers : int;
  heap_words : int option;
  lease : Lease.config;
  local_fallback : bool;
  max_frame : int;
  log : string -> unit;
}

let default_config =
  {
    endpoints = [];
    local_workers = 1;
    heap_words = None;
    lease = Lease.default_config;
    local_fallback = true;
    max_frame = Jsonl.default_max_document_bytes;
    log = (fun (_ : string) -> ());
  }

type conn = {
  c_conn : Conn.t;
  mutable c_name : string option;  (* set by a register frame *)
}

let enqueue c payload = Conn.send c.c_conn payload

type t = {
  cfg : config;
  table : Lease.t;
  pool : Pool.t;
  listeners : Unix.file_descr list;
  mutable conns : conn list;
  jobs : (string, Pool.job * Jsonl.t option) Hashtbl.t;
  mutable local_runs : int;
  mutable remote_runs : int;
  mutable finished : int;
}

let local_ok t = t.cfg.local_fallback || t.cfg.endpoints = []

let create ?(config = default_config) () =
  match Endpoint.listen ~code:"cluster.bind" config.endpoints with
  | Error d -> Error d
  | Ok listeners ->
      Ok
        {
          cfg = config;
          table =
            Lease.create ~config:config.lease ~now:(Unix.gettimeofday ()) ();
          pool =
            Pool.create ~workers:config.local_workers
              ?heap_words:config.heap_words ();
          listeners;
          conns = [];
          jobs = Hashtbl.create 64;
          local_runs = 0;
          remote_runs = 0;
          finished = 0;
        }

let submit t ?(attempt = 1) ?wire ~deadline job =
  Hashtbl.replace t.jobs job.Pool.id (job, wire);
  let remote = wire <> None && t.listeners <> [] in
  Lease.submit t.table ~now:(Unix.gettimeofday ()) ~id:job.Pool.id ~attempt
    ~deadline ~remote

let pending t = Lease.pending t.table
let local_runs t = t.local_runs
let remote_runs t = t.remote_runs
let completed t = t.finished
let fenced t = Lease.fenced t.table
let releases t = Lease.releases t.table
let worker_deaths t = Lease.worker_deaths t.table

let fds t =
  t.listeners
  @ List.filter_map
      (fun c -> if Conn.alive c.c_conn then Some (Conn.fd c.c_conn) else None)
      t.conns
  @ Pool.worker_fds t.pool

let stats_json t ~now =
  Jsonl.Obj
    [
      ("pending", Jsonl.Int (pending t));
      ("completed", Jsonl.Int t.finished);
      ("local_runs", Jsonl.Int t.local_runs);
      ("remote_runs", Jsonl.Int t.remote_runs);
      ("fenced", Jsonl.Int (fenced t));
      ("releases", Jsonl.Int (releases t));
      ("worker_deaths", Jsonl.Int (worker_deaths t));
      ("workers", Jsonl.List (Lease.workers_json t.table ~now));
    ]

let accept_conns t =
  List.iter
    (fun lfd ->
      List.iter
        (fun fd ->
          t.conns <-
            {
              c_conn = Conn.create ~max_frame:t.cfg.max_frame fd;
              c_name = None;
            }
            :: t.conns)
        (Endpoint.accept lfd))
    t.listeners

let find_conn t name =
  List.find_opt
    (fun c -> Conn.alive c.c_conn && c.c_name = Some name)
    t.conns

let handle_control t c (env : P.envelope) ~now =
  match env.P.request with
  | P.Ping ->
      enqueue c
        (P.ok_response ~id:env.P.req_id (Jsonl.Obj [ ("pong", Jsonl.Bool true) ]))
  | P.Health | P.Stats ->
      enqueue c (P.ok_response ~id:env.P.req_id (stats_json t ~now))
  | _ ->
      enqueue c
        (P.error_response ~id:env.P.req_id
           (Diag.input ~code:"cluster.unsupported"
              "dispatcher socket accepts worker frames and ping/health/stats only"))

(* Returns the completions produced by accepted remote results. *)
let handle_payload t c payload ~now =
  match P.parse_cluster_msg ~max_bytes:t.cfg.max_frame payload with
  | Error d ->
      t.cfg.log (Diag.to_string d);
      enqueue c (P.error_response ~id:"?" d);
      []
  | Ok (P.Control env) ->
      handle_control t c env ~now;
      []
  | Ok (P.Worker (P.Register r)) ->
      (* A reconnecting worker re-registers under the same name; the
         fresh registration supersedes the dead connection's state. *)
      (match find_conn t r.P.g_worker with
      | Some old when old != c -> Conn.close old.c_conn
      | _ -> ());
      c.c_name <- Some r.P.g_worker;
      Lease.register t.table ~now ~name:r.P.g_worker
        ~capacity:r.P.g_capacity ~libraries:r.P.g_libraries;
      t.cfg.log (Printf.sprintf "cluster: worker %s registered (capacity %d)"
                   r.P.g_worker r.P.g_capacity);
      enqueue c
        (P.ok_response ~id:"register"
           (Jsonl.Obj [ ("worker", Jsonl.String r.P.g_worker) ]));
      []
  | Ok (P.Worker (P.Heartbeat { h_worker; _ })) ->
      Lease.heartbeat t.table ~now ~name:h_worker;
      []
  | Ok
      (P.Worker
        (P.Lease_result { u_job; u_epoch; u_attempt; u_seconds; u_verdict }))
    -> (
      let worker = Option.value ~default:"?" c.c_name in
      match Lease.result t.table ~worker ~job:u_job ~epoch:u_epoch with
      | `Accept -> (
          match Hashtbl.find_opt t.jobs u_job with
          | Some (job, _) ->
              t.remote_runs <- t.remote_runs + 1;
              [
                {
                  Pool.c_job = job;
                  c_attempt = u_attempt;
                  c_verdict = u_verdict;
                  c_seconds = u_seconds;
                };
              ]
          | None -> [])
      | `Stale | `Unknown ->
          t.cfg.log
            (Printf.sprintf "cluster: fenced result for %s (epoch %d from %s)"
               u_job u_epoch worker);
          [])

(* A vanished or poisoned peer: requeue its leases under the backoff
   policy. *)
let disconnect t c ~now =
  Option.iter (fun name -> Lease.disconnect t.table ~now ~name) c.c_name;
  Conn.close c.c_conn

let read_conn t c ~now =
  if not (Conn.alive c.c_conn) then []
  else
    let payloads, status = Conn.read c.c_conn in
    let completions =
      List.concat_map (fun p -> handle_payload t c p ~now) payloads
    in
    (match status with
    | Conn.Open -> ()
    | Conn.Too_large d ->
        t.cfg.log (Diag.to_string d);
        disconnect t c ~now
    | Conn.Eof | Conn.Failed -> disconnect t c ~now);
    completions

let apply_action t ~now = function
  | Lease.Grant { a_worker; a_job; a_epoch; a_attempt; a_deadline } -> (
      match (find_conn t a_worker, Hashtbl.find_opt t.jobs a_job) with
      | Some c, Some (_, Some wire) ->
          enqueue c
            (P.lease_msg ~job:a_job ~epoch:a_epoch ~attempt:a_attempt
               ~deadline:a_deadline wire)
      | _ ->
          (* Connection raced away between tick and send: treat as a
             disconnect so the lease fails over instead of hanging. *)
          Lease.disconnect t.table ~now ~name:a_worker)
  | Lease.Rescind { a_worker; a_job; a_epoch } -> (
      t.cfg.log
        (Printf.sprintf "cluster: lease on %s expired at %s (epoch %d)"
           a_job a_worker a_epoch);
      match find_conn t a_worker with
      | Some c -> enqueue c (P.revoke_msg ~job:a_job ~epoch:a_epoch)
      | None -> ())
  | Lease.Run_local { a_job; a_attempt; a_deadline } -> (
      match Hashtbl.find_opt t.jobs a_job with
      | Some (job, _) ->
          t.local_runs <- t.local_runs + 1;
          Pool.submit t.pool ~attempt:a_attempt ~deadline:a_deadline job
      | None -> ())
  | Lease.Expire name -> (
      t.cfg.log (Printf.sprintf "cluster: worker %s missed heartbeats" name);
      match find_conn t name with Some c -> Conn.close c.c_conn | None -> ())

let step t =
  let now = Unix.gettimeofday () in
  accept_conns t;
  let remote =
    List.concat_map (fun c -> read_conn t c ~now) t.conns
  in
  List.iter (apply_action t ~now) (Lease.tick t.table ~now ~local_ok:(local_ok t));
  let local = Pool.step t.pool in
  List.iter (fun c -> Lease.local_done t.table ~job:c.Pool.c_job.Pool.id) local;
  List.iter (fun c -> Conn.flush c.c_conn) t.conns;
  t.conns <- List.filter (fun c -> Conn.alive c.c_conn) t.conns;
  let completions = remote @ local in
  t.finished <- t.finished + List.length completions;
  completions

let shutdown t =
  List.iter (fun c -> Conn.close c.c_conn) t.conns;
  t.conns <- [];
  List.iter2 Endpoint.close t.cfg.endpoints t.listeners;
  ignore (Pool.kill_all t.pool)

let run ?(config = default_config) ?retry ?journal ?resume
    ?(tick = fun (_ : t) -> ()) ~deadline jobs =
  match create ~config () with
  | Error d -> Error d
  | Ok t ->
      let wires = Hashtbl.create (List.length jobs) in
      List.iter
        (fun ((j : Pool.job), w) -> Hashtbl.replace wires j.Pool.id w)
        jobs;
      let outcome =
        Pool.drive ?retry ?journal ?resume ~log:config.log ~deadline
          {
            Pool.submit =
              (fun ~attempt ~deadline j ->
                submit t ~attempt
                  ?wire:(Option.join (Hashtbl.find_opt wires j.Pool.id))
                  ~deadline j);
            step =
              (fun () ->
                tick t;
                step t);
            fds = (fun () -> fds t);
            pending = (fun () -> pending t);
            (* Leased attempts die with their connections in [shutdown]. *)
            stop = (fun () -> ignore (Pool.kill_all t.pool));
          }
          (List.map fst jobs)
      in
      shutdown t;
      Result.map (fun o -> (o, t)) outcome
