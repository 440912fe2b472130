open Serve
module Jsonl = Batch.Jsonl

(* Half-close tests write into sockets the peer may have shut; the test
   binary must survive EPIPE the same way synth does. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let test name f = Alcotest.test_case name `Quick f

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mfs-serve-%d-%s" (Unix.getpid ()) name)

let rm path = try Sys.remove path with Sys_error _ -> ()

(* --- Framing ------------------------------------------------------------- *)

let frame_roundtrip_any_split () =
  let payloads = [ "{}"; String.make 300 'x'; "{\"op\":\"ping\"}" ] in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  (* Whole stream in one feed. *)
  let d = Frame.decoder () in
  let got = Helpers.check_okd "feed all" (Frame.feed d wire) in
  Alcotest.(check (list string)) "one feed" payloads got;
  Alcotest.(check bool) "nothing pending" false (Frame.has_partial d);
  (* Byte-by-byte: framing must not care how the bytes are chunked. *)
  let d = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      got :=
        !got
        @ Helpers.check_okd "feed byte" (Frame.feed d (String.make 1 c)))
    wire;
  Alcotest.(check (list string)) "byte by byte" payloads !got

let frame_partial_is_visible () =
  let d = Frame.decoder () in
  let wire = Frame.encode "{\"op\":\"ping\"}" in
  let cut = String.length wire - 3 in
  ignore
    (Helpers.check_okd "feed prefix" (Frame.feed d (String.sub wire 0 cut)));
  Alcotest.(check bool) "mid-frame" true (Frame.has_partial d);
  let got =
    Helpers.check_okd "feed rest"
      (Frame.feed d (String.sub wire cut (String.length wire - cut)))
  in
  Alcotest.(check (list string)) "completes" [ "{\"op\":\"ping\"}" ] got;
  Alcotest.(check bool) "drained" false (Frame.has_partial d)

let frame_oversize_refused_from_header () =
  let d = Frame.decoder ~max_frame:64 () in
  (* Header alone announces 65 bytes: refused before any payload byte. *)
  let header = Bytes.create Frame.header_bytes in
  Bytes.set_int32_be header 0 65l;
  let e =
    Helpers.check_errd "oversize" (Frame.feed d (Bytes.to_string header))
  in
  Alcotest.(check string) "typed code" "serve.frame-too-large" e.Diag.code;
  (* A negative length is the same poison. *)
  let d = Frame.decoder ~max_frame:64 () in
  Bytes.set_int32_be header 0 (-1l);
  let e =
    Helpers.check_errd "negative" (Frame.feed d (Bytes.to_string header))
  in
  Alcotest.(check string) "negative length refused" "serve.frame-too-large"
    e.Diag.code

(* --- Connections --------------------------------------------------------- *)

(* A Conn over one end of a socketpair with a small send buffer, so
   frames split across partial writes; the other end is the raw peer. *)
let conn_pair ?max_frame () =
  let mine, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int mine Unix.SO_SNDBUF 4096;
  Unix.set_nonblock peer;
  (Conn.create ?max_frame mine, peer)

(* Whatever the peer can read right now, at most [n] bytes, decoded. *)
let peer_burst peer dec n =
  let buf = Bytes.create n in
  match Unix.read peer buf 0 n with
  | 0 -> []
  | k ->
      Helpers.check_okd "peer feed" (Frame.feed dec (Bytes.sub_string buf 0 k))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> []

(* Flush and read in bursts until [want] frames arrived (or 10s). *)
let drain_to_peer c peer dec ~want got =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go got n =
    if n >= want || Unix.gettimeofday () > deadline then List.rev got
    else begin
      Conn.flush c;
      let fs = peer_burst peer dec 1024 in
      go (List.rev_append fs got) (n + List.length fs)
    end
  in
  go (List.rev got) (List.length got)

let conn_partial_writes_keep_order () =
  let c, peer = conn_pair () in
  (* Every seventh frame outgrows the send buffer and must split. *)
  let payload i =
    let n = (i * 7919) mod 3000 in
    Printf.sprintf "%d:%s" i
      (String.make (if i mod 7 = 0 then 8000 + (8 * n) else n) 'a')
  in
  let dec = Frame.decoder () in
  let got = ref [] and backlog = ref false in
  for i = 0 to 999 do
    Conn.send c (payload i);
    backlog := !backlog || Conn.has_output c;
    got := !got @ peer_burst peer dec 1024
  done;
  Alcotest.(check bool) "output backed up" true !backlog;
  let got = drain_to_peer c peer dec ~want:1000 !got in
  Alcotest.(check int) "all frames" 1000 (List.length got);
  Alcotest.(check bool) "intact and in order" true
    (got = List.init 1000 payload);
  Alcotest.(check bool) "queue empty" false (Conn.has_output c);
  Conn.close c;
  Unix.close peer

let conn_peer_close_mid_flush () =
  let c, peer = conn_pair () in
  Conn.send c (String.make 1_000_000 'x');
  Alcotest.(check bool) "backlog queued" true (Conn.has_output c);
  Unix.close peer;
  Conn.flush c;
  Alcotest.(check bool) "dead" false (Conn.alive c);
  Alcotest.(check bool) "output dropped" false (Conn.has_output c);
  Conn.send c "{}";
  Conn.flush c

let conn_oversize_header () =
  let c, peer = conn_pair ~max_frame:64 () in
  let header = Bytes.create Frame.header_bytes in
  Bytes.set_int32_be header 0 65l;
  ignore (Unix.write peer header 0 Frame.header_bytes);
  (match Conn.read c with
  | [], Conn.Too_large d ->
      Alcotest.(check string) "typed code" "serve.frame-too-large" d.Diag.code
  | _ -> Alcotest.fail "expected Too_large");
  Alcotest.(check bool) "closing is the caller's call" true (Conn.alive c);
  (* The poisoned stream drops what follows until the peer closes. *)
  ignore (Unix.write_substring peer (String.make 100 'x') 0 100);
  (match Conn.read c with
  | [], Conn.Open -> ()
  | _ -> Alcotest.fail "expected the rest dropped");
  Unix.close peer;
  (match Conn.read c with
  | [], Conn.Eof -> ()
  | _ -> Alcotest.fail "expected Eof after the drop");
  Conn.close c

let conn_half_close_still_flushes () =
  let c, peer = conn_pair () in
  Helpers.check_okd "peer send" (Frame.send peer "{\"op\":\"ping\"}");
  Unix.shutdown peer Unix.SHUTDOWN_SEND;
  (match Conn.read c with
  | [ p ], Conn.Eof -> Alcotest.(check string) "frame" "{\"op\":\"ping\"}" p
  | _ -> Alcotest.fail "expected one frame, then Eof");
  Alcotest.(check bool) "no partial frame" false (Conn.has_partial c);
  let reply = String.make 200_000 'r' in
  Conn.send c reply;
  Alcotest.(check bool) "reply owed" true (Conn.has_output c);
  let got = drain_to_peer c peer (Frame.decoder ()) ~want:1 [] in
  Alcotest.(check bool) "owed reply delivered" true (got = [ reply ]);
  Alcotest.(check bool) "still alive" true (Conn.alive c);
  Conn.close c;
  Unix.close peer

(* --- Protocol ------------------------------------------------------------ *)

let request_parses () =
  let payload =
    Client.build ~op:"schedule" ~id:"42"
      [
        ("spec", Jsonl.String "diffeq");
        ("cs", Jsonl.Int 4);
        ("weights", Jsonl.String "1/1/1/20");
        ("style", Jsonl.Int 2);
        ("deadline", Jsonl.Float 2.5);
      ]
  in
  let env = Helpers.check_okd "parse" (Protocol.parse_request payload) in
  Alcotest.(check string) "id echoes" "42" env.Protocol.req_id;
  Alcotest.(check (option (float 1e-9))) "deadline" (Some 2.5)
    env.Protocol.req_deadline;
  Alcotest.(check string) "op" "schedule"
    (Protocol.request_op_name env.Protocol.request)

let request_errors_are_typed () =
  let code payload =
    (Helpers.check_errd "reject" (Protocol.parse_request payload)).Diag.code
  in
  Alcotest.(check string) "no op" "serve.bad-request" (code "{\"id\":\"1\"}");
  Alcotest.(check string) "unknown op" "serve.bad-request"
    (code "{\"op\":\"frobnicate\",\"id\":\"1\"}");
  Alcotest.(check string) "malformed JSON" "batch.jsonl" (code "{nope");
  let big =
    Printf.sprintf "{\"op\":\"ping\",\"id\":%S}" (String.make 256 'x')
  in
  Alcotest.(check string) "over the byte ceiling" "batch.frame-too-large"
    (Helpers.check_errd "bounded"
       (Protocol.parse_request ~max_bytes:64 big))
      .Diag.code

let response_roundtrip () =
  let ok = Protocol.ok_response ~id:"7" ~cached:true (Jsonl.Obj []) in
  let r = Helpers.check_okd "parse ok" (Protocol.parse_response ok) in
  Alcotest.(check bool) "ok" true r.Protocol.r_ok;
  Alcotest.(check bool) "cached" true r.Protocol.r_cached;
  Alcotest.(check string) "id" "7" r.Protocol.r_id;
  let err =
    Protocol.error_response ~id:"8" ~retry_after:1.5
      (Diag.unavailable ~code:"serve.overloaded" "queue full")
  in
  let r = Helpers.check_okd "parse err" (Protocol.parse_response err) in
  Alcotest.(check bool) "not ok" false r.Protocol.r_ok;
  Alcotest.(check (option (float 1e-9))) "retry hint" (Some 1.5)
    r.Protocol.r_retry_after;
  match r.Protocol.r_diag with
  | Some d ->
      Alcotest.(check string) "diag code" "serve.overloaded" d.Diag.code;
      Alcotest.(check int) "unavailable exit" 7 (Diag.exit_code d)
  | None -> Alcotest.fail "error response lost its diag"

(* --- Admission ----------------------------------------------------------- *)

let admission_sheds_beyond_limit () =
  let a = Admission.create ~limit:2 in
  let admit x = Admission.try_admit a ~in_flight:1 ~workers:2 x in
  Alcotest.(check bool) "first admitted" true (admit "a" = `Admitted);
  Alcotest.(check bool) "second admitted" true (admit "b" = `Admitted);
  (match admit "c" with
  | `Admitted -> Alcotest.fail "third must shed"
  | `Shed eta ->
      Alcotest.(check bool)
        (Printf.sprintf "hint %.2f clamped to [0.5, 60]" eta)
        true
        (eta >= 0.5 && eta <= 60.));
  Alcotest.(check int) "shed counted" 1 (Admission.shed_count a);
  Alcotest.(check (option string)) "FIFO pop" (Some "a") (Admission.pop a);
  Alcotest.(check (option string)) "FIFO pop 2" (Some "b") (Admission.pop a);
  Alcotest.(check (option string)) "drained" None (Admission.pop a);
  Alcotest.(check int) "depth zero" 0 (Admission.depth a)

(* --- Client --------------------------------------------------------------- *)

(* Replies to pipelined requests that arrive in one read are all kept. *)
let client_keeps_pipelined_replies () =
  let socket = tmp "pipe.sock" in
  rm socket;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 1;
  Fun.protect ~finally:(fun () ->
      Unix.close lfd;
      rm socket)
  @@ fun () ->
  let c = Helpers.check_okd "connect" (Client.connect socket) in
  let server, _ = Unix.accept lfd in
  let replies =
    List.map
      (fun id -> Protocol.ok_response ~id (Jsonl.Obj []))
      [ "a"; "b"; "c" ]
  in
  Helpers.check_okd "one write"
    (Frame.write_all server (String.concat "" (List.map Frame.encode replies)));
  Unix.close server;
  let ids =
    List.init 3 (fun _ ->
        match Helpers.check_okd "recv" (Client.recv ~timeout:5. c) with
        | Some r -> r.Protocol.r_id
        | None -> "<eof>")
  in
  Alcotest.(check (list string)) "all three, in order" [ "a"; "b"; "c" ] ids;
  (match Client.recv ~timeout:5. c with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected a clean EOF");
  Client.close c

(* --- Live daemon --------------------------------------------------------- *)

let start_daemon cfg =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      let ready () =
        ignore (Unix.write w (Bytes.make 1 'r') 0 1);
        try Unix.close w with Unix.Unix_error _ -> ()
      in
      let code =
        match Daemon.run ~ready cfg with Ok () -> 0 | Error _ -> 1
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      match Unix.select [ r ] [] [] 15. with
      | [], _, _ ->
          Unix.close r;
          Unix.kill pid Sys.sigkill;
          Alcotest.fail "daemon never became ready"
      | _ ->
          ignore (Unix.read r (Bytes.create 1) 0 1);
          Unix.close r;
          pid)

let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid

let stop_daemon pid =
  Unix.kill pid Sys.sigterm;
  match wait_exit pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "daemon drained with exit %d, not 0" n
  | _ -> Alcotest.fail "daemon killed by signal during drain"

(* Run [f] against a live daemon and drain it after; a failure in [f]
   kills the daemon instead, so no test leaves one serving. *)
let with_daemon cfg f =
  let pid = start_daemon cfg in
  match f () with
  | v ->
      stop_daemon pid;
      v
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (wait_exit pid);
      raise e

let connect socket = Helpers.check_okd "connect" (Client.connect socket)

let schedule_payload ~id ?(weights = "1/1/1/1") ?inject ?deadline () =
  Client.build ~op:"schedule" ~id
    ([
       ("spec", Jsonl.String "diffeq");
       ("cs", Jsonl.Int 0);
       ("weights", Jsonl.String weights);
     ]
    @ (match inject with
      | None -> []
      | Some f -> [ ("inject", Jsonl.String f) ])
    @
    match deadline with
    | None -> []
    | Some d -> [ ("deadline", Jsonl.Float d) ])

let request c payload =
  Helpers.check_okd "request" (Client.request ~timeout:30. c payload)

let response_code (r : Protocol.response) =
  if r.Protocol.r_ok then "ok"
  else
    match r.Protocol.r_diag with
    | Some d -> d.Diag.code
    | None -> "error-without-diag"

(* One daemon, the happy paths: a schedule answered fresh then from the
   cache, health/stats, a half-closed client still answered, an oversized
   frame refused — and a SIGTERM drain that exits 0. *)
let serve_roundtrip_cache_and_drain () =
  let socket = tmp "rt.sock" and cache = tmp "rt-cache.jsonl" in
  let journal = tmp "rt-journal.jsonl" in
  List.iter rm [ socket; cache; journal ];
  let cfg =
    {
      (Daemon.default ~socket) with
      Daemon.workers = 2;
      max_frame = 64 * 1024;
      cache_path = Some cache;
      journal_path = Some journal;
    }
  in
  let pid = start_daemon cfg in
  Fun.protect ~finally:(fun () -> List.iter rm [ socket; cache; journal ])
  @@ fun () ->
  let c = connect socket in
  let r1 = request c (schedule_payload ~id:"s1" ()) in
  Alcotest.(check string) "schedule ok" "ok" (response_code r1);
  Alcotest.(check bool) "first is fresh" false r1.Protocol.r_cached;
  Alcotest.(check string) "id echoed" "s1" r1.Protocol.r_id;
  (match r1.Protocol.r_payload with
  | Some doc ->
      Alcotest.(check bool) "metrics present" true
        (Jsonl.int "csteps" doc <> None)
  | None -> Alcotest.fail "ok response without payload");
  let r2 = request c (schedule_payload ~id:"s2" ()) in
  Alcotest.(check bool) "repeat served from cache" true r2.Protocol.r_cached;
  let h = request c (Client.build ~op:"health" ~id:"h" []) in
  Alcotest.(check string) "health ok" "ok" (response_code h);
  let s = request c (Client.build ~op:"stats" ~id:"st" []) in
  (match s.Protocol.r_payload with
  | Some doc ->
      Alcotest.(check bool) "stats report cache hits" true
        (match Jsonl.member "cache" doc with
        | Some cache_doc ->
            Option.value ~default:0 (Jsonl.int "hits" cache_doc) >= 1
        | None -> false)
  | None -> Alcotest.fail "stats response without payload");
  Client.close c;
  (* Half-close: shut our send side right after the frame; the response
     must still arrive on the owed connection. *)
  let hc = connect socket in
  Helpers.check_okd "send"
    (Client.send hc (schedule_payload ~id:"half" ()));
  (try Unix.shutdown (Client.fd hc) Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ -> ());
  (match Helpers.check_okd "recv" (Client.recv ~timeout:30. hc) with
  | Some r -> Alcotest.(check string) "half-close answered" "ok" (response_code r)
  | None -> Alcotest.fail "daemon closed a half-closed conn unanswered");
  Client.close hc;
  (* Oversize: a frame over the daemon's ceiling gets a typed refusal. *)
  let ov = connect socket in
  Helpers.check_okd "send oversize"
    (Client.send ov (String.make ((64 * 1024) + 1) 'x'));
  (match Client.recv ~timeout:30. ov with
  | Ok (Some r) ->
      Alcotest.(check string) "refused from the header"
        "serve.frame-too-large" (response_code r)
  | Ok None | Error _ -> Alcotest.fail "no typed oversize refusal");
  Client.close ov;
  stop_daemon pid;
  (* Crash-only durability: both stores exist and the cache replays. *)
  let t = Helpers.check_okd "cache replays" (Explore.Cache.load cache) in
  Alcotest.(check bool) "cache persisted the result" true
    (Explore.Cache.size t >= 1);
  Alcotest.(check bool) "journal written" true (Sys.file_exists journal)

(* One worker, a one-deep queue, four distinct hang requests: at least one
   must be shed with a typed serve.overloaded (plus retry hint), at least
   one must reach a worker and die by deadline as serve.deadline — and the
   daemon must survive all of it and still drain cleanly. *)
let serve_sheds_overload_and_kills_hangs () =
  let socket = tmp "ov.sock" in
  rm socket;
  let cfg =
    {
      (Daemon.default ~socket) with
      Daemon.workers = 1;
      queue_limit = 1;
      drain_timeout = 2.;
    }
  in
  let pid = start_daemon cfg in
  Fun.protect ~finally:(fun () -> rm socket) @@ fun () ->
  let c = connect socket in
  (* Distinct weights give distinct content keys — no coalescing. *)
  for i = 1 to 4 do
    Helpers.check_okd "send hang"
      (Client.send c
         (schedule_payload
            ~id:(Printf.sprintf "hang%d" i)
            ~weights:(Printf.sprintf "1/1/1/%d" i)
            ~inject:"hang" ~deadline:1.0 ()))
  done;
  let codes = ref [] in
  let retry_hints = ref 0 in
  for _ = 1 to 4 do
    match Helpers.check_okd "recv" (Client.recv ~timeout:30. c) with
    | Some r ->
        codes := response_code r :: !codes;
        if r.Protocol.r_retry_after <> None then incr retry_hints
    | None -> Alcotest.fail "connection closed before all responses"
  done;
  Client.close c;
  let count code = List.length (List.filter (( = ) code) !codes) in
  let shed = count "serve.overloaded" and killed = count "serve.deadline" in
  Alcotest.(check int)
    (Printf.sprintf "every request answered (%s)" (String.concat "," !codes))
    4 (shed + killed);
  Alcotest.(check bool) "at least one shed" true (shed >= 1);
  Alcotest.(check bool) "at least one deadline kill" true (killed >= 1);
  Alcotest.(check bool) "shed responses carry retry hints" true
    (!retry_hints >= shed);
  (* The daemon is still healthy after the abuse. *)
  let c = connect socket in
  let r = request c (Client.build ~op:"ping" ~id:"alive" []) in
  Alcotest.(check string) "still serving" "ok" (response_code r);
  Client.close c;
  stop_daemon pid

(* kill -9, restart on the same stores: the repeated request must answer
   from the warm cache without re-running. *)
let serve_kill9_restart_serves_warm () =
  let socket = tmp "k9.sock" and cache = tmp "k9-cache.jsonl" in
  List.iter rm [ socket; cache ];
  let cfg =
    { (Daemon.default ~socket) with Daemon.cache_path = Some cache }
  in
  let pid = start_daemon cfg in
  Fun.protect ~finally:(fun () -> List.iter rm [ socket; cache ])
  @@ fun () ->
  let c = connect socket in
  let r1 = request c (schedule_payload ~id:"cold" ()) in
  Alcotest.(check string) "cold run ok" "ok" (response_code r1);
  Alcotest.(check bool) "cold run fresh" false r1.Protocol.r_cached;
  Client.close c;
  (* Crash-only: no shutdown path at all. *)
  Unix.kill pid Sys.sigkill;
  (match wait_exit pid with
  | Unix.WSIGNALED _ -> ()
  | _ -> Alcotest.fail "expected the daemon to die by SIGKILL");
  let pid2 = start_daemon cfg in
  let c = connect socket in
  let r2 = request c (schedule_payload ~id:"warm" ()) in
  Alcotest.(check string) "warm run ok" "ok" (response_code r2);
  Alcotest.(check bool) "restart answered from the warm cache" true
    r2.Protocol.r_cached;
  Client.close c;
  stop_daemon pid2

(* A corrupt store is moved aside before the cache writer opens: the
   next run's entries start a fresh store, and the run after that serves
   them warm. *)
let serve_corrupt_cache_restarts_warm () =
  let socket = tmp "corrupt.sock" and cache = tmp "corrupt-cache.jsonl" in
  let aside = cache ^ ".corrupt" in
  List.iter rm [ socket; cache; aside ];
  Out_channel.with_open_bin cache (fun oc ->
      output_string oc "not a cache entry\n{\"also\":\"not one\"}\n");
  let cfg =
    { (Daemon.default ~socket) with Daemon.cache_path = Some cache }
  in
  let schedule_once id =
    with_daemon cfg (fun () ->
        let c = connect socket in
        let r = request c (schedule_payload ~id ()) in
        Client.close c;
        r)
  in
  Fun.protect ~finally:(fun () -> List.iter rm [ socket; cache; aside ])
  @@ fun () ->
  let r1 = schedule_once "cold" in
  Alcotest.(check string) "cold run ok" "ok" (response_code r1);
  Alcotest.(check bool) "cold run fresh" false r1.Protocol.r_cached;
  Alcotest.(check bool) "corrupt store moved aside" true
    (Sys.file_exists aside);
  let r2 = schedule_once "warm" in
  Alcotest.(check string) "repeat ok" "ok" (response_code r2);
  Alcotest.(check bool) "repeat answered from the fresh store" true
    r2.Protocol.r_cached

(* A regular file at the socket path is refused, not replaced. *)
let serve_refuses_a_non_socket_path () =
  let socket = tmp "notes.txt" in
  Out_channel.with_open_bin socket (fun oc -> output_string oc "keep me\n");
  Fun.protect ~finally:(fun () ->
      (* run installs the drain handlers in this process. *)
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      rm socket)
  @@ fun () ->
  let started () = failwith "the daemon replaced the file and served" in
  let d =
    Helpers.check_errd "run"
      (Daemon.run ~ready:started (Daemon.default ~socket))
  in
  Alcotest.(check string) "typed bind error" "serve.bind" d.Diag.code;
  Alcotest.(check string) "file intact" "keep me\n"
    (In_channel.with_open_bin socket In_channel.input_all)

(* Binding a list of endpoints is all or nothing: when one is refused,
   the ones bound before it are closed and their socket files removed. *)
let endpoint_listen_all_or_nothing () =
  let good = tmp "good.sock" and notes = tmp "notes2.txt" in
  rm good;
  Out_channel.with_open_bin notes (fun oc -> output_string oc "keep me\n");
  Fun.protect ~finally:(fun () -> List.iter rm [ good; notes ]) @@ fun () ->
  let d =
    Helpers.check_errd "listen"
      (Endpoint.listen ~code:"test.bind"
         [ Endpoint.Unix_path good; Endpoint.Unix_path notes ])
  in
  Alcotest.(check string) "caller's code" "test.bind" d.Diag.code;
  Alcotest.(check bool) "first socket removed" false (Sys.file_exists good);
  Alcotest.(check string) "refused file intact" "keep me\n"
    (In_channel.with_open_bin notes In_channel.input_all)

(* A refused oversized frame: the client finishes writing it without
   EPIPE, reads exactly one typed refusal, and a client that then stays
   silent is closed once read_timeout passes. *)
let serve_oversize_refusal_lingers () =
  let socket = tmp "linger.sock" in
  rm socket;
  let cfg =
    {
      (Daemon.default ~socket) with
      Daemon.max_frame = 1024;
      read_timeout = 0.3;
    }
  in
  let pid = start_daemon cfg in
  Fun.protect ~finally:(fun () -> rm socket) @@ fun () ->
  let c = connect socket in
  Helpers.check_okd "whole oversized frame written"
    (Client.send c (String.make 200_000 'x'));
  (match Helpers.check_okd "recv" (Client.recv ~timeout:10. c) with
  | Some r ->
      Alcotest.(check string) "typed refusal" "serve.frame-too-large"
        (response_code r)
  | None -> Alcotest.fail "closed before the refusal");
  (match Client.recv ~timeout:10. c with
  | Ok None -> ()
  | Ok (Some r) -> Alcotest.failf "a second frame: %s" (response_code r)
  | Error d -> Alcotest.failf "not closed cleanly: %s" (Diag.to_string d));
  Client.close c;
  stop_daemon pid

(* synth bombard against a live daemon: the planted hangs, oversized
   frames and half-closed sockets all come back as typed responses, and
   no request is a transport failure. *)
let bombard_planted_faults_come_back_typed () =
  let socket = tmp "bombard.sock" in
  rm socket;
  Fun.protect ~finally:(fun () -> rm socket) @@ fun () ->
  let report =
    with_daemon (Daemon.default ~socket) (fun () ->
        Helpers.check_okd "bombard"
          (Bombard.run
             {
               (Bombard.default ~socket) with
               Bombard.jobs = 2;
               requests = 12;
               plant_hang = true;
               plant_oversize = true;
               plant_half_close = true;
             }))
  in
  let count code =
    Option.value ~default:0 (List.assoc_opt code report.Bombard.b_errors)
  in
  Alcotest.(check (list string)) "no violated assertion" []
    report.Bombard.b_failures;
  Alcotest.(check int) "no transport failure" 0 report.Bombard.b_io_failures;
  Alcotest.(check int) "every request sent" 24 report.Bombard.b_sent;
  Alcotest.(check bool) "hangs come back as serve.deadline" true
    (count "serve.deadline" >= 1);
  Alcotest.(check bool) "oversize comes back as serve.frame-too-large" true
    (count "serve.frame-too-large" >= 1)

let suite =
  [
    test "frame: round-trips under any chunking" frame_roundtrip_any_split;
    test "frame: partial frames are visible" frame_partial_is_visible;
    test "frame: oversize refused from the header"
      frame_oversize_refused_from_header;
    test "protocol: schedule requests parse" request_parses;
    test "protocol: rejections are typed" request_errors_are_typed;
    test "protocol: responses round-trip" response_roundtrip;
    test "admission: sheds beyond the limit" admission_sheds_beyond_limit;
    test "daemon: round-trip, cache, half-close, oversize, drain"
      serve_roundtrip_cache_and_drain;
    test "daemon: overload sheds, deadlines kill hangs"
      serve_sheds_overload_and_kills_hangs;
    test "daemon: kill -9 restart serves from the warm cache"
      serve_kill9_restart_serves_warm;
    test "conn: 1000 frames survive partial writes in order"
      conn_partial_writes_keep_order;
    test "conn: a peer closing mid-flush leaves it dead, no raise"
      conn_peer_close_mid_flush;
    test "conn: oversize header reported, the rest dropped"
      conn_oversize_header;
    test "conn: owed output flushes after a peer half-close"
      conn_half_close_still_flushes;
    test "daemon: an oversize refusal lingers, then closes"
      serve_oversize_refusal_lingers;
    test "client: pipelined replies read together are all kept"
      client_keeps_pipelined_replies;
    test "bombard: planted faults all come back typed"
      bombard_planted_faults_come_back_typed;
    test "daemon: a corrupt cache is moved aside, the next restart is warm"
      serve_corrupt_cache_restarts_warm;
    test "daemon: a non-socket file at the socket path is refused"
      serve_refuses_a_non_socket_path;
    test "endpoint: a refused listen leaves nothing bound"
      endpoint_listen_all_or_nothing;
  ]
