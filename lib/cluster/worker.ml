module P = Serve.Protocol
module Conn = Serve.Conn
module Endpoint = Serve.Endpoint
module Pool = Batch.Pool
module Retry = Batch.Retry
module Jsonl = Batch.Jsonl
module Verdict = Batch.Verdict

type config = {
  endpoint : Endpoint.t;
  name : string;
  capacity : int;
  heap_words : int option;
  heap_mb : int option;
  heartbeat_interval : float;
  reconnect : Retry.policy;
  max_sessions : int;
      (** Consecutive failed dials tolerated before giving up;
          [max_int] reconnects forever. *)
  libraries : string list;
  duplicate_results : bool;
      (** Chaos hook: deliver every result frame twice, exercising the
          dispatcher's fencing discard. *)
  max_frame : int;
  log : string -> unit;
}

let default_config ~endpoint ~name =
  {
    endpoint;
    name;
    capacity = 1;
    heap_words = None;
    heap_mb = None;
    heartbeat_interval = 0.5;
    reconnect = Retry.backoff ~max_attempts:6 ~base_delay:0.1 ~max_delay:2.0 ();
    max_sessions = max_int;
    libraries = [];
    duplicate_results = false;
    max_frame = Jsonl.default_max_document_bytes;
    log = (fun (_ : string) -> ());
  }

(* One connected session: register, then execute leases until the
   dispatcher goes away or [stop] fires. Returns [`Stopped] or
   [`Disconnected]. *)
let session cfg ~stop ~pool conn =
  (* job id -> (fencing epoch, verdict attempt) for in-flight leases. *)
  let leases : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  Conn.send conn
    (P.register_msg ~worker:cfg.name ~capacity:cfg.capacity
       ?heap_mb:cfg.heap_mb ~libraries:cfg.libraries ());
  let send_result ~job ~epoch ~attempt ~seconds verdict =
    let payload = P.result_msg ~job ~epoch ~attempt ~seconds verdict in
    Conn.send conn payload;
    if cfg.duplicate_results then Conn.send conn payload
  in
  let handle_payload payload =
    match P.parse_downstream ~max_bytes:cfg.max_frame payload with
    | Error d ->
        cfg.log (Diag.to_string d);
        Conn.close conn
    | Ok (P.Ack _) -> ()
    | Ok (P.Revoke { v_job; v_epoch }) -> (
        match Hashtbl.find_opt leases v_job with
        | Some (epoch, _) when epoch = v_epoch ->
            Hashtbl.remove leases v_job;
            ignore (Pool.kill_job pool v_job)
        | _ -> ())
    | Ok (P.Lease { l_job; l_epoch; l_attempt; l_deadline; l_wire }) -> (
        match Wire.to_job l_wire with
        | Error d ->
            cfg.log (Diag.to_string d);
            send_result ~job:l_job ~epoch:l_epoch ~attempt:l_attempt
              ~seconds:0. (Verdict.Rejected d)
        | Ok job ->
            if job.Pool.id <> l_job then
              (* The dispatcher and this host disagree on the job's
                 content digest — e.g. a manifest line naming a graph
                 file this host does not have. Refuse loudly rather
                 than journal a verdict under the wrong identity. *)
              send_result ~job:l_job ~epoch:l_epoch ~attempt:l_attempt
                ~seconds:0.
                (Verdict.Rejected
                   (Diag.input ~code:"cluster.bad-wire"
                      (Printf.sprintf
                         "wire job rebuilt with id %s, lease names %s"
                         job.Pool.id l_job)))
            else begin
              (match Hashtbl.find_opt leases l_job with
              | Some _ -> ignore (Pool.kill_job pool l_job)
              | None -> ());
              Hashtbl.replace leases l_job (l_epoch, l_attempt);
              Pool.submit pool ~attempt:l_attempt ~deadline:l_deadline job
            end)
  in
  let read_socket () =
    let payloads, status = Conn.read conn in
    List.iter handle_payload payloads;
    match status with
    | Conn.Open -> ()
    | Conn.Too_large d ->
        cfg.log (Diag.to_string d);
        Conn.close conn
    | Conn.Eof | Conn.Failed -> Conn.close conn
  in
  let last_heartbeat = ref (Unix.gettimeofday ()) in
  let rec loop () =
    if stop () then `Stopped
    else if not (Conn.alive conn) then `Disconnected
    else begin
      (match
         Unix.select (Conn.fd conn :: Pool.worker_fds pool) [] [] 0.05
       with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ());
      read_socket ();
      List.iter
        (fun (c : Pool.completion) ->
          match Hashtbl.find_opt leases c.Pool.c_job.Pool.id with
          | Some (epoch, _) ->
              Hashtbl.remove leases c.Pool.c_job.Pool.id;
              send_result ~job:c.Pool.c_job.Pool.id ~epoch
                ~attempt:c.Pool.c_attempt ~seconds:c.Pool.c_seconds
                c.Pool.c_verdict
          | None -> ())
        (Pool.step pool);
      let now = Unix.gettimeofday () in
      if now -. !last_heartbeat >= cfg.heartbeat_interval then begin
        last_heartbeat := now;
        Conn.send conn
          (P.heartbeat_msg ~worker:cfg.name ~inflight:(Pool.load pool))
      end;
      Conn.flush conn;
      loop ()
    end
  in
  let outcome = loop () in
  Conn.close conn;
  (* Leases die with the session: the dispatcher has already (or will)
     requeue them elsewhere; finishing them here would only produce
     fenced discards. *)
  ignore (Pool.kill_all pool);
  Hashtbl.reset leases;
  outcome

let run ?(stop = fun () -> false) cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let pool =
    Pool.create ~workers:(max 1 cfg.capacity) ?heap_words:cfg.heap_words ()
  in
  let rng = Random.State.make_self_init () in
  let rec connect_loop ~failures ~prev_delay =
    if stop () then Ok ()
    else if failures >= cfg.max_sessions then
      Error
        (Diag.input ~code:"cluster.disconnected"
           (Printf.sprintf
              "worker %s: gave up dialing %s after %d attempt(s)" cfg.name
              (Endpoint.describe cfg.endpoint)
              failures))
    else
      match Endpoint.connect ~backoff:cfg.reconnect cfg.endpoint with
      | Error d ->
          cfg.log (Diag.to_string d);
          let delay = Retry.next_delay cfg.reconnect ~rng ~prev:prev_delay in
          let rec sleep left =
            if left > 0. && not (stop ()) then begin
              (match Unix.select [] [] [] (Float.min left 0.1) with
              | _ -> ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
              sleep (left -. 0.1)
            end
          in
          sleep delay;
          connect_loop ~failures:(failures + 1) ~prev_delay:delay
      | Ok client ->
          let conn =
            Conn.create ~max_frame:cfg.max_frame (Serve.Client.fd client)
          in
          cfg.log
            (Printf.sprintf "worker %s: connected to %s" cfg.name
               (Endpoint.describe cfg.endpoint));
          (match session cfg ~stop ~pool conn with
          | `Stopped -> Ok ()
          | `Disconnected ->
              cfg.log
                (Printf.sprintf "worker %s: dispatcher went away, redialing"
                   cfg.name);
              (* A dispatcher restart is survivable: redial with a fresh
                 failure budget. *)
              connect_loop ~failures:0 ~prev_delay:0.)
  in
  let result = connect_loop ~failures:0 ~prev_delay:0. in
  ignore (Pool.kill_all pool);
  result
