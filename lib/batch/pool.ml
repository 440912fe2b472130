type job = {
  id : string;
  seed : int;
  descr : string;
  work : unit -> (string, Diag.t) result;
  degraded : (unit -> (string, Diag.t) result) option;
}

let job ?degraded ~id ~seed ~descr work = { id; seed; descr; work; degraded }

let oom_exit_code = 9

(* Single-domain process: a plain ref written from a signal handler and
   polled by the supervision loop is race-free enough. *)
let stop_requested = ref false
let request_stop () = stop_requested := true
let stop_pending () = !stop_requested

let install_signal_handlers () =
  let handle = Sys.Signal_handle (fun _ -> request_stop ()) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

type outcome = {
  records : Journal.record list;
  resumed : int;
  interrupted : bool;
}

(* --- Worker side ------------------------------------------------------- *)

(* The worker: run the attempt's closure, serialize the result onto the
   pipe, _exit without flushing the parent's buffered channels. Crashes,
   hangs and heap blowups simply happen — classification is the parent's
   job. It leaves only through _exit: a failed write (EPIPE once the
   supervisor is gone and SIGPIPE is ignored) must not unwind into this
   forked copy of the supervisor and run on as one. *)
let exec_child ~heap_words ~attempt job wfd =
  let deliver () =
    Sys.set_signal Sys.sigint Sys.Signal_default;
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    (match heap_words with
    | None -> ()
    | Some ceiling ->
        ignore
          (Gc.create_alarm (fun () ->
               if (Gc.quick_stat ()).Gc.heap_words > ceiling then
                 Unix._exit oom_exit_code)));
    let work =
      if attempt > 1 then Option.value job.degraded ~default:job.work
      else job.work
    in
    let result =
      try work ()
      with e ->
        Error
          (Diag.internal ~code:"batch.worker-exn"
             ("worker raised: " ^ Printexc.to_string e))
    in
    let doc =
      match result with
      | Ok payload -> Jsonl.Obj [ ("ok", Jsonl.String payload) ]
      | Error d -> Jsonl.Obj [ ("rejected", Verdict.diag_to_json d) ]
    in
    let delivered = Jsonl.write_all wfd (Jsonl.to_string doc) in
    (try Unix.close wfd with Unix.Unix_error _ -> ());
    delivered
  in
  Unix._exit (match deliver () with Ok () -> 0 | Error _ | exception _ -> 1)

(* --- Supervisor -------------------------------------------------------- *)

type slot = {
  pid : int;
  s_job : job;
  attempt : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  started : float;
  kill_at : float;
  mutable eof : bool;
  mutable killed : bool;  (** We sent the deadline SIGKILL. *)
}

let spawn ~heap_words ~deadline job attempt =
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (try Unix.close rfd with Unix.Unix_error _ -> ());
      exec_child ~heap_words ~attempt job wfd
  | pid ->
      Unix.close wfd;
      Unix.set_nonblock rfd;
      let now = Unix.gettimeofday () in
      {
        pid;
        s_job = job;
        attempt;
        fd = rfd;
        buf = Buffer.create 256;
        started = now;
        kill_at = now +. deadline;
        eof = false;
        killed = false;
      }

let drain slot =
  if not slot.eof then begin
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read slot.fd chunk 0 (Bytes.length chunk) with
      | 0 -> slot.eof <- true
      | n ->
          Buffer.add_subbytes slot.buf chunk 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  end

let payload_verdict slot =
  match Jsonl.parse (Buffer.contents slot.buf) with
  | Ok doc -> (
      match (Jsonl.str "ok" doc, Jsonl.member "rejected" doc) with
      | Some payload, _ -> Verdict.Done payload
      | None, Some d -> (
          match Verdict.diag_of_json d with
          | Ok d -> Verdict.Rejected d
          | Error _ -> Verdict.Crashed (Verdict.Exit 0))
      | None, None -> Verdict.Crashed (Verdict.Exit 0))
  | Error _ -> Verdict.Crashed (Verdict.Exit 0)

let classify slot status =
  match status with
  | Unix.WEXITED 0 -> payload_verdict slot
  | Unix.WEXITED n when n = oom_exit_code -> Verdict.Oom
  | Unix.WEXITED n -> Verdict.Crashed (Verdict.Exit n)
  | Unix.WSIGNALED _ when slot.killed -> Verdict.Timeout
  | Unix.WSIGNALED s -> Verdict.Crashed (Verdict.Signal (Verdict.signal_name s))
  | Unix.WSTOPPED _ ->
      (* Unreachable without WUNTRACED; classify defensively. *)
      Verdict.Crashed (Verdict.Exit 255)

let kill_slot slot =
  slot.killed <- true;
  try Unix.kill slot.pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap_blocking slot =
  let rec go () =
    match Unix.waitpid [] slot.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let status = go () in
  drain slot;
  (try Unix.close slot.fd with Unix.Unix_error _ -> ());
  status

(* --- Incremental pool --------------------------------------------------- *)

type completion = {
  c_job : job;
  c_attempt : int;
  c_verdict : Verdict.t;
  c_seconds : float;
}

let journal_record ~final c =
  {
    Journal.id = c.c_job.id;
    seed = c.c_job.seed;
    descr = c.c_job.descr;
    attempt = c.c_attempt;
    final;
    verdict = c.c_verdict;
    seconds = c.c_seconds;
  }

type t = {
  p_heap_words : int option;
  p_slots : slot option array;
  p_queue : (job * int * float) Queue.t;  (* job, attempt, deadline *)
}

let create ?(workers = 1) ?heap_words () =
  let workers = max 1 workers in
  {
    p_heap_words = heap_words;
    p_slots = Array.make workers None;
    p_queue = Queue.create ();
  }

let submit t ?(attempt = 1) ~deadline job =
  Queue.add (job, attempt, deadline) t.p_queue

let in_flight t =
  Array.fold_left
    (fun n s -> match s with Some _ -> n + 1 | None -> n)
    0 t.p_slots

let queued t = Queue.length t.p_queue
let load t = in_flight t + queued t
let capacity t = Array.length t.p_slots

let worker_fds t =
  Array.to_list t.p_slots
  |> List.filter_map (function
       | Some s when not s.eof -> Some s.fd
       | _ -> None)

(* The child is gone: read the pipe to EOF so no payload byte is lost. *)
let drain_to_eof slot =
  let rec go () =
    if not slot.eof then begin
      drain slot;
      if not slot.eof then begin
        ignore (Unix.select [ slot.fd ] [] [] 0.01);
        go ()
      end
    end
  in
  go ()

let reap_slot t i slot status =
  drain_to_eof slot;
  (try Unix.close slot.fd with Unix.Unix_error _ -> ());
  t.p_slots.(i) <- None;
  {
    c_job = slot.s_job;
    c_attempt = slot.attempt;
    c_verdict = classify slot status;
    c_seconds = Unix.gettimeofday () -. slot.started;
  }

let step t =
  (* Fill free slots from the queue. *)
  Array.iteri
    (fun i s ->
      if s = None && not (Queue.is_empty t.p_queue) then begin
        let j, attempt, deadline = Queue.pop t.p_queue in
        t.p_slots.(i) <-
          Some (spawn ~heap_words:t.p_heap_words ~deadline j attempt)
      end)
    t.p_slots;
  (* Drain pipe traffic, enforce deadlines, reap exits — all non-blocking
     (worker pipes are O_NONBLOCK; waitpid uses WNOHANG). *)
  let now = Unix.gettimeofday () in
  let finished = ref [] in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some slot -> (
          drain slot;
          if now > slot.kill_at && not slot.killed then kill_slot slot;
          match Unix.waitpid [ Unix.WNOHANG ] slot.pid with
          | 0, _ -> ()
          | _, status -> finished := reap_slot t i slot status :: !finished
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
    t.p_slots;
  List.rev !finished

(* Revocation: a specific attempt is no longer wanted. A queued attempt
   just leaves the FIFO; a live one is SIGKILLed and reaped here so the
   caller never sees a completion for it. *)
let kill_job t id =
  let found = ref false in
  let kept = Queue.create () in
  Queue.iter
    (fun ((j, _, _) as item) ->
      if j.id = id then found := true else Queue.add item kept)
    t.p_queue;
  Queue.clear t.p_queue;
  Queue.transfer kept t.p_queue;
  Array.iteri
    (fun i -> function
      | Some slot when slot.s_job.id = id ->
          found := true;
          kill_slot slot;
          ignore (reap_blocking slot);
          t.p_slots.(i) <- None
      | _ -> ())
    t.p_slots;
  !found

let kill_all t =
  Queue.clear t.p_queue;
  let finished = ref [] in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some slot ->
          kill_slot slot;
          let status = reap_blocking slot in
          finished := reap_slot t i slot status :: !finished)
    t.p_slots;
  List.rev !finished

(* --- Batch driver ------------------------------------------------------- *)

type executor = {
  submit : attempt:int -> deadline:float -> job -> unit;
  step : unit -> completion list;
  fds : unit -> Unix.file_descr list;
  pending : unit -> int;
  stop : unit -> unit;
}

let drive ?(retry = Retry.default) ?journal ?(resume = false)
    ?(log = fun (_ : string) -> ()) ~deadline exec jobs =
  stop_requested := false;
  let previous =
    if resume then
      match journal with
      | None -> Ok []
      | Some path -> Journal.load path
    else Ok []
  in
  match previous with
  | Error d -> Error d
  | Ok previous ->
      let finals = Journal.finals previous in
      let lasts = Journal.last_attempts previous in
      let ( let* ) = Result.bind in
      let* writer =
        match journal with
        | None -> Ok None
        | Some path -> Result.map Option.some (Journal.open_writer path)
      in
      let results : (string, Journal.record) Hashtbl.t =
        Hashtbl.create (List.length jobs)
      in
      let resumed = ref 0 in
      let submit ~attempt j =
        exec.submit ~attempt ~deadline:(Retry.deadline retry ~attempt deadline)
          j
      in
      (* Submission order; resume decides the first attempt. *)
      List.iter
        (fun j ->
          match Hashtbl.find_opt finals j.id with
          | Some r ->
              incr resumed;
              Hashtbl.replace results j.id r;
              log (Printf.sprintf "%s: resumed (%s)" j.descr
                     (Verdict.describe r.Journal.verdict))
          | None ->
              let attempt =
                match Hashtbl.find_opt lasts j.id with
                | Some r -> r.Journal.attempt + 1
                | None -> 1
              in
              submit ~attempt j)
        jobs;
      let append r =
        (* A dead journal sink must not abort the batch: the only cost of
           a lost record is redone work on the next resume. *)
        Option.iter
          (fun w ->
            match Journal.append w r with
            | Ok () -> ()
            | Error d -> log (Diag.to_string d))
          writer
      in
      let finish c =
        let final =
          not (Retry.should_retry retry ~attempt:c.c_attempt c.c_verdict)
        in
        let record = journal_record ~final c in
        append record;
        if final then begin
          Hashtbl.replace results c.c_job.id record;
          log
            (Printf.sprintf "%s: %s (%.1fs%s)" c.c_job.descr
               (Verdict.describe c.c_verdict) c.c_seconds
               (if c.c_attempt > 1 then ", retry" else ""))
        end
        else begin
          log
            (Printf.sprintf "%s: %s (%.1fs) — retrying degraded"
               c.c_job.descr (Verdict.describe c.c_verdict) c.c_seconds);
          submit ~attempt:(c.c_attempt + 1) c.c_job
        end
      in
      (* Returns whether a stop cut the batch short. An interrupt discards
         in-flight attempts unrecorded, so a resume re-runs them from
         their last journalled attempt. *)
      let rec supervise () =
        if !stop_requested then begin
          exec.stop ();
          true
        end
        else if exec.pending () = 0 then false
        else begin
          let completions = exec.step () in
          List.iter finish completions;
          (if completions = [] then
             match Unix.select (exec.fds ()) [] [] 0.05 with
             | _ -> ()
             | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) ->
                 ());
          supervise ()
        end
      in
      let interrupted = supervise () in
      Option.iter Journal.close writer;
      let records =
        List.filter_map (fun j -> Hashtbl.find_opt results j.id) jobs
      in
      Ok { records; resumed = !resumed; interrupted }

let run ?(workers = 1) ?retry ?journal ?resume ?heap_words ?log ~deadline
    jobs =
  let pool = create ~workers ?heap_words () in
  drive ?retry ?journal ?resume ?log ~deadline
    {
      submit = (fun ~attempt ~deadline j -> submit pool ~attempt ~deadline j);
      step = (fun () -> step pool);
      fds = (fun () -> worker_fds pool);
      pending = (fun () -> load pool);
      stop = (fun () -> ignore (kill_all pool));
    }
    jobs
