open Cluster
module Retry = Batch.Retry
module Jsonl = Batch.Jsonl
module Pool = Batch.Pool
module Endpoint = Serve.Endpoint

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore
let test name f = Alcotest.test_case name `Quick f

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mfs-cluster-%d-%s" (Unix.getpid ()) name)

(* --- Retry policy (shared backoff shape) --------------------------------- *)

let retry_backoff_bounds () =
  let p = Retry.backoff ~max_attempts:5 ~base_delay:0.1 ~max_delay:1.0 () in
  let rng = Random.State.make [| 42 |] in
  let prev = ref 0. in
  for _ = 1 to 200 do
    let d = Retry.next_delay p ~rng ~prev:!prev in
    Alcotest.(check bool) "at least base" true (d >= 0.1);
    Alcotest.(check bool) "under cap + base" true (d <= 1.0 +. 0.1);
    prev := d
  done

let retry_exhausted () =
  let p = Retry.backoff ~max_attempts:3 () in
  Alcotest.(check bool) "attempt 2 ok" false (Retry.exhausted p ~attempt:2);
  Alcotest.(check bool) "attempt 3 done" true (Retry.exhausted p ~attempt:3);
  let f = Retry.forever () in
  Alcotest.(check bool) "forever" false (Retry.exhausted f ~attempt:1_000_000)

(* --- Lease state machine ------------------------------------------------- *)

let lease_config =
  {
    Lease.retry = Retry.backoff ~max_attempts:3 ~base_delay:0.01 ~max_delay:0.05 ();
    grace = 1.0;
    heartbeat_window = 1.0;
    warmup = 0.5;
  }

let table ?(now = 1000.) () = Lease.create ~config:lease_config ~now ()

let grants actions =
  List.filter_map
    (function
      | Lease.Grant { a_worker; a_job; a_epoch; _ } ->
          Some (a_worker, a_job, a_epoch)
      | _ -> None)
    actions

let locals actions =
  List.filter_map
    (function Lease.Run_local { a_job; _ } -> Some a_job | _ -> None)
    actions

let lease_grant_and_accept () =
  let t = table () in
  Lease.register t ~now:1000. ~name:"w0" ~capacity:2 ~libraries:[];
  Lease.submit t ~now:1000. ~id:"j1" ~attempt:1 ~deadline:5.0 ~remote:true;
  match grants (Lease.tick t ~now:1000.1 ~local_ok:true) with
  | [ (w, j, epoch) ] ->
      Alcotest.(check string) "worker" "w0" w;
      Alcotest.(check string) "job" "j1" j;
      (match Lease.result t ~worker:"w0" ~job:"j1" ~epoch with
      | `Accept -> ()
      | _ -> Alcotest.fail "result should be accepted");
      Alcotest.(check int) "pending drains" 0 (Lease.pending t);
      (* Second delivery of the same result: fenced, not re-journaled. *)
      (match Lease.result t ~worker:"w0" ~job:"j1" ~epoch with
      | `Stale -> ()
      | _ -> Alcotest.fail "duplicate must be stale");
      Alcotest.(check int) "fenced counted" 1 (Lease.fenced t)
  | gs -> Alcotest.failf "expected one grant, got %d" (List.length gs)

let lease_fencing_stale_epoch () =
  let t = table () in
  Lease.register t ~now:1000. ~name:"w0" ~capacity:1 ~libraries:[];
  Lease.register t ~now:1000. ~name:"w1" ~capacity:1 ~libraries:[];
  Lease.submit t ~now:1000. ~id:"j1" ~attempt:1 ~deadline:5.0 ~remote:true;
  let epoch0 =
    match grants (Lease.tick t ~now:1000.1 ~local_ok:true) with
    | [ (_, _, e) ] -> e
    | _ -> Alcotest.fail "want one grant"
  in
  (* The holder goes silent; its lease fails over to the other worker. *)
  let holder =
    match Lease.epoch_of t ~job:"j1" with
    | Some _ -> (
        match grants (Lease.tick t ~now:1000.2 ~local_ok:true) with
        | [] -> "w0" (* still leased; find holder via disconnect below *)
        | _ -> Alcotest.fail "no second grant while leased")
    | None -> Alcotest.fail "job unknown"
  in
  ignore holder;
  Lease.disconnect t ~now:1000.3 ~name:"w0";
  Lease.disconnect t ~now:1000.3 ~name:"w1";
  Lease.register t ~now:1000.4 ~name:"w2" ~capacity:1 ~libraries:[];
  let epoch1 =
    match grants (Lease.tick t ~now:1001.0 ~local_ok:true) with
    | [ ("w2", "j1", e) ] -> e
    | _ -> Alcotest.fail "want re-lease to w2"
  in
  Alcotest.(check bool) "epoch bumped" true (epoch1 > epoch0);
  (* The first holder's late result carries the old epoch: discard. *)
  (match Lease.result t ~worker:"w0" ~job:"j1" ~epoch:epoch0 with
  | `Stale -> ()
  | _ -> Alcotest.fail "stale epoch must be fenced");
  Alcotest.(check int) "still pending" 1 (Lease.pending t);
  (match Lease.result t ~worker:"w2" ~job:"j1" ~epoch:epoch1 with
  | `Accept -> ()
  | _ -> Alcotest.fail "current lease result accepted");
  Alcotest.(check int) "one fenced" 1 (Lease.fenced t)

let lease_expiry_rescinds () =
  let t = table () in
  Lease.register t ~now:1000. ~name:"w0" ~capacity:1 ~libraries:[];
  Lease.submit t ~now:1000. ~id:"j1" ~attempt:1 ~deadline:2.0 ~remote:true;
  ignore (Lease.tick t ~now:1000.1 ~local_ok:true);
  (* Keep the worker heartbeat-alive but never finishing: slow loris. *)
  Lease.heartbeat t ~now:1003.0 ~name:"w0";
  let actions = Lease.tick t ~now:1003.2 ~local_ok:true in
  let rescinds =
    List.filter_map
      (function
        | Lease.Rescind { a_job; _ } -> Some a_job | _ -> None)
      actions
  in
  Alcotest.(check (list string)) "rescinded" [ "j1" ] rescinds;
  Alcotest.(check int) "release counted" 1 (Lease.releases t)

let lease_heartbeat_death_requeues () =
  let t = table () in
  Lease.register t ~now:1000. ~name:"w0" ~capacity:1 ~libraries:[];
  Lease.register t ~now:1000. ~name:"w1" ~capacity:1 ~libraries:[];
  Lease.submit t ~now:1000. ~id:"j1" ~attempt:1 ~deadline:9.0 ~remote:true;
  let first =
    match grants (Lease.tick t ~now:1000.1 ~local_ok:true) with
    | [ (w, _, _) ] -> w
    | _ -> Alcotest.fail "want one grant"
  in
  let other = if first = "w0" then "w1" else "w0" in
  (* Only the idle worker heartbeats; the holder goes silent. *)
  Lease.heartbeat t ~now:1001.0 ~name:other;
  Lease.heartbeat t ~now:1001.5 ~name:other;
  let actions = Lease.tick t ~now:1001.6 ~local_ok:true in
  let expired =
    List.filter_map
      (function Lease.Expire w -> Some w | _ -> None)
      actions
  in
  Alcotest.(check (list string)) "holder expired" [ first ] expired;
  Alcotest.(check int) "death counted" 1 (Lease.worker_deaths t);
  (* Backoff elapses; the job must land on the survivor. *)
  match grants (Lease.tick t ~now:1002.0 ~local_ok:true) with
  | [ (w, "j1", _) ] -> Alcotest.(check string) "failover" other w
  | gs -> Alcotest.failf "expected failover grant, got %d" (List.length gs)

let lease_exhaustion_goes_local () =
  let t = table () in
  Lease.submit t ~now:1000. ~id:"j1" ~attempt:1 ~deadline:5.0 ~remote:true;
  (* Lose the lease max_attempts times; each loss needs a live worker. *)
  let now = ref 1000.1 in
  for _ = 1 to 3 do
    Lease.register t ~now:!now ~name:"w" ~capacity:1 ~libraries:[];
    (match grants (Lease.tick t ~now:!now ~local_ok:true) with
    | [ _ ] -> ()
    | gs ->
        (* Backoff may defer the grant; advance time until it fires. *)
        if gs = [] then begin
          now := !now +. 0.2;
          match grants (Lease.tick t ~now:!now ~local_ok:true) with
          | [ _ ] -> ()
          | _ -> Alcotest.fail "expected a (re-)grant"
        end);
    Lease.disconnect t ~now:!now ~name:"w";
    now := !now +. 0.2
  done;
  (* Tries exhausted: even with a fresh live worker the job escalates to
     the local pool. *)
  Lease.register t ~now:!now ~name:"w9" ~capacity:4 ~libraries:[];
  now := !now +. 0.2;
  (match locals (Lease.tick t ~now:!now ~local_ok:true) with
  | [ "j1" ] -> ()
  | _ -> Alcotest.fail "expected local escalation");
  Lease.local_done t ~job:"j1";
  Alcotest.(check int) "done" 0 (Lease.pending t)

let lease_no_workers_local_after_warmup () =
  let t = table ~now:1000. () in
  Lease.submit t ~now:1000. ~id:"j1" ~attempt:1 ~deadline:5.0 ~remote:true;
  Alcotest.(check (list string)) "warmup holds the job" []
    (locals (Lease.tick t ~now:1000.2 ~local_ok:true));
  Alcotest.(check (list string)) "past warmup goes local" [ "j1" ]
    (locals (Lease.tick t ~now:1000.6 ~local_ok:true))

let lease_local_forbidden_waits () =
  let t = table ~now:1000. () in
  Lease.submit t ~now:1000. ~id:"j1" ~attempt:1 ~deadline:5.0 ~remote:true;
  Alcotest.(check (list string)) "no local fallback" []
    (locals (Lease.tick t ~now:1002.0 ~local_ok:false));
  Alcotest.(check int) "still pending" 1 (Lease.pending t)

let lease_wireless_job_runs_local () =
  let t = table ~now:1000. () in
  Lease.register t ~now:1000. ~name:"w0" ~capacity:8 ~libraries:[];
  Lease.submit t ~now:1000. ~id:"fuzz" ~attempt:1 ~deadline:5.0 ~remote:false;
  let actions = Lease.tick t ~now:1000.1 ~local_ok:true in
  Alcotest.(check (list string)) "local immediately" [ "fuzz" ]
    (locals actions);
  Alcotest.(check int) "no grants" 0 (List.length (grants actions))

(* --- Wire round-trips ---------------------------------------------------- *)

(* A wire document as the socket delivers it: serialized, then re-parsed. *)
let over_socket doc =
  match Jsonl.parse (Jsonl.to_string doc) with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "wire document does not re-parse: %s" e

let wire_manifest_roundtrip () =
  List.iter
    (fun line ->
      let entry =
        match Batch.Manifest.parse_line ~file:"t" ~line:1 line with
        | Ok (Some e) -> e
        | _ -> Alcotest.fail "parse_line"
      in
      let job = Batch.Jobs.of_entry ~seed:7 entry in
      let wire = over_socket (Wire.of_entry ~seed:7 entry) in
      match Wire.to_job wire with
      | Error d -> Alcotest.fail (Diag.to_string d)
      | Ok rebuilt ->
          Alcotest.(check string) (line ^ ": id stable across the wire")
            job.Pool.id rebuilt.Pool.id;
          Alcotest.(check string) "descr stable" job.Pool.descr
            rebuilt.Pool.descr;
          Alcotest.(check int) "seed stable" job.Pool.seed rebuilt.Pool.seed)
    [ "diffeq --cs 4 --inject hang"; "diffeq --limit '*=2' --limit '+=1'" ]

let wire_explore_roundtrip () =
  let graph =
    match Workloads.Classic.by_name "diffeq" with
    | Some g -> g
    | None -> Alcotest.fail "builtin diffeq"
  in
  List.iter
    (fun spec_text ->
      let spec =
        match Explore.Spec.parse ~file:"t" spec_text with
        | Ok s -> s
        | Error d -> Alcotest.fail (Diag.to_string d)
      in
      let points = Explore.Lattice.expand spec in
      Alcotest.(check bool) "some points" true (points <> []);
      List.iter
        (fun p ->
          let job = Explore.Lattice.job ~graph p in
          let wire = over_socket (Explore.Lattice.wire ~graph p) in
          (match Option.map Explore.Lattice.point_of_json (Jsonl.member "point" wire) with
          | Some (Ok p') ->
              Alcotest.(check bool) (spec_text ^ ": point arrives as sent") true
                (p' = p)
          | _ -> Alcotest.fail "wire point does not decode");
          match Explore.Lattice.job_of_wire wire with
          | Error e -> Alcotest.fail e
          | Ok rebuilt ->
              Alcotest.(check string) "key digest stable" job.Pool.id
                rebuilt.Pool.id)
        points)
    [
      "graph diffeq\ncs 4 6\nweights 1/1/1/20\n";
      "graph diffeq\nclock 123.4567891\ncs 4 6\n";
      "graph diffeq\nweights 1/1/1/0.1234567890123\ncs 4\n";
    ]

let wire_rejects_garbage () =
  (match Wire.to_job (Jsonl.Obj [ ("family", Jsonl.String "nope") ]) with
  | Error d -> Alcotest.(check string) "code" "cluster.bad-wire" d.Diag.code
  | Ok _ -> Alcotest.fail "unknown family must fail");
  match Wire.to_job (Jsonl.Obj []) with
  | Error d -> Alcotest.(check string) "code" "cluster.bad-wire" d.Diag.code
  | Ok _ -> Alcotest.fail "missing family must fail"

(* --- Endpoints ----------------------------------------------------------- *)

let endpoint_parse () =
  (match Endpoint.parse "tcp:9000" with
  | Ok (Endpoint.Tcp 9000) -> ()
  | _ -> Alcotest.fail "tcp:9000");
  (match Endpoint.parse "/tmp/x.sock" with
  | Ok (Endpoint.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix path");
  (match Endpoint.parse "tcp:0" with
  | Error d -> Alcotest.(check string) "code" "cluster.endpoint" d.Diag.code
  | Ok _ -> Alcotest.fail "tcp:0 must fail");
  match Endpoint.parse_list "a.sock, tcp:7001 ,," with
  | Ok [ Endpoint.Unix_path "a.sock"; Endpoint.Tcp 7001 ] -> ()
  | _ -> Alcotest.fail "list with blanks"

(* --- Client reconnect backoff -------------------------------------------- *)

let client_reports_attempts () =
  let path = tmp "absent.sock" in
  let backoff =
    Retry.backoff ~max_attempts:3 ~base_delay:0.005 ~max_delay:0.01 ()
  in
  match Serve.Client.connect ~timeout:2.0 ~backoff path with
  | Ok _ -> Alcotest.fail "connect to absent socket must fail"
  | Error d ->
      Alcotest.(check string) "code" "serve.connect" d.Diag.code;
      Alcotest.(check bool)
        (Printf.sprintf "message reports attempts: %s" d.Diag.message)
        true
        (let needle = "after 3 attempt" in
         let m = d.Diag.message in
         let nl = String.length needle and ml = String.length m in
         let rec has i =
           i + nl <= ml && (String.sub m i nl = needle || has (i + 1))
         in
         has 0)

(* --- Dispatcher end-to-end (no remote workers needed) -------------------- *)

let dispatcher_pure_local_run () =
  let mk id =
    Pool.job ~id ~seed:0 ~descr:id (fun () -> Ok "{\"status\":\"clean\"}")
  in
  match
    Dispatcher.run ~deadline:10.0
      [ (mk "a", None); (mk "b", None); (mk "c", None) ]
  with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok (o, t) ->
      Alcotest.(check int) "all records" 3 (List.length o.Pool.records);
      Alcotest.(check int) "all local" 3 (Dispatcher.local_runs t);
      Alcotest.(check int) "none remote" 0 (Dispatcher.remote_runs t);
      Alcotest.(check bool) "not interrupted" false o.Pool.interrupted

let dispatcher_resume_replays () =
  let journal = tmp "dispatcher.jsonl" in
  (try Sys.remove journal with Sys_error _ -> ());
  let mk id =
    Pool.job ~id ~seed:0 ~descr:id (fun () -> Ok "{\"status\":\"clean\"}")
  in
  let jobs = [ (mk "a", None); (mk "b", None) ] in
  (match Dispatcher.run ~journal ~deadline:10.0 jobs with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok (o, _) -> Alcotest.(check int) "cold run" 2 (List.length o.Pool.records));
  let before =
    let ic = open_in_bin journal in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (match Dispatcher.run ~journal ~resume:true ~deadline:10.0 jobs with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok (o, t) ->
      Alcotest.(check int) "all resumed" 2 o.Pool.resumed;
      Alcotest.(check int) "nothing ran" 0 (Dispatcher.completed t));
  let after =
    let ic = open_in_bin journal in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check string) "journal byte-identical" before after;
  try Sys.remove journal with Sys_error _ -> ()

(* --- One driver: Pool.run and Dispatcher.run behave alike ---------------- *)

let local_dispatch ?journal ~retry ~deadline jobs =
  match
    Dispatcher.run
      ~config:{ Dispatcher.default_config with Dispatcher.local_workers = 2 }
      ?journal ~retry ~deadline
      (List.map (fun j -> (j, None)) jobs)
  with
  | Ok (o, _) -> o
  | Error d -> Alcotest.fail (Diag.to_string d)

let pool_run ?journal ~retry ~deadline jobs =
  match Pool.run ~workers:2 ?journal ~retry ~deadline jobs with
  | Ok o -> o
  | Error d -> Alcotest.fail (Diag.to_string d)

let load_journal path =
  match Batch.Journal.load path with
  | Ok rs -> rs
  | Error d -> Alcotest.fail (Diag.to_string d)

let driver_retry_parity () =
  let jobs =
    [
      Pool.job ~id:"clean" ~seed:0 ~descr:"clean" (fun () -> Ok "{\"n\":0}");
      Pool.job ~id:"slow" ~seed:1 ~descr:"sleeps past its deadline"
        ~degraded:(fun () -> Ok "{\"degraded\":true}")
        (fun () ->
          Unix.sleepf 5.0;
          Ok "{\"n\":1}");
    ]
  in
  let run_with name driver =
    let journal = tmp (name ^ "-parity.jsonl") in
    (try Sys.remove journal with Sys_error _ -> ());
    let o = driver ~journal ~retry:Retry.default ~deadline:0.5 jobs in
    let records = load_journal journal in
    Sys.remove journal;
    (o, records)
  in
  let pool_o, pool_j =
    run_with "pool" (fun ~journal -> pool_run ~journal)
  in
  let disp_o, disp_j =
    run_with "dispatcher" (fun ~journal -> local_dispatch ~journal)
  in
  let untimed rs =
    List.map (fun r -> { r with Batch.Journal.seconds = 0. }) rs
  in
  Alcotest.(check bool) "equal records, ignoring seconds" true
    (untimed pool_o.Pool.records = untimed disp_o.Pool.records);
  let attempts rs =
    List.filter_map
      (fun (r : Batch.Journal.record) ->
        if r.Batch.Journal.id = "slow" then
          Some (r.Batch.Journal.attempt, r.Batch.Journal.final,
                r.Batch.Journal.verdict)
        else None)
      rs
  in
  List.iter
    (fun (name, rs) ->
      Alcotest.(check bool) (name ^ ": timeout, then degraded done") true
        (attempts rs
        = [
            (1, false, Batch.Verdict.Timeout);
            (2, true, Batch.Verdict.Done "{\"degraded\":true}");
          ]))
    [ ("pool", pool_j); ("dispatcher", disp_j) ];
  Alcotest.(check bool) "journals equivalent" true
    (Batch.Journal.equivalent pool_j disp_j)

let driver_interrupt_parity () =
  let restore () =
    Sys.set_signal Sys.sigint Sys.Signal_default;
    Sys.set_signal Sys.sigterm Sys.Signal_default
  in
  Pool.install_signal_handlers ();
  Fun.protect ~finally:restore @@ fun () ->
  let check_driver name driver =
    let pidfile = tmp (name ^ "-long.pid") in
    (try Sys.remove pidfile with Sys_error _ -> ());
    let jobs =
      [
        Pool.job ~id:"long" ~seed:0 ~descr:"long" (fun () ->
            Out_channel.with_open_bin (pidfile ^ ".tmp") (fun oc ->
                output_string oc (string_of_int (Unix.getpid ())));
            Sys.rename (pidfile ^ ".tmp") pidfile;
            Unix.sleepf 30.0;
            Ok "{}");
        Pool.job ~id:"kick" ~seed:1 ~descr:"interrupts its supervisor"
          (fun () ->
            let rec await n =
              if n > 0 && not (Sys.file_exists pidfile) then begin
                Unix.sleepf 0.01;
                await (n - 1)
              end
            in
            await 500;
            Unix.kill (Unix.getppid ()) Sys.sigint;
            Ok "{}");
      ]
    in
    let o = driver ~retry:Retry.none ~deadline:60.0 jobs in
    Alcotest.(check bool) (name ^ ": interrupted") true o.Pool.interrupted;
    Alcotest.(check bool) (name ^ ": no record for the long job") false
      (List.exists
         (fun (r : Batch.Journal.record) -> r.Batch.Journal.id = "long")
         o.Pool.records);
    let pid =
      int_of_string (In_channel.with_open_bin pidfile In_channel.input_all)
    in
    Sys.remove pidfile;
    Alcotest.(check bool) (name ^ ": long worker killed and reaped") true
      (match Unix.kill pid 0 with
      | () -> false
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true)
  in
  check_driver "pool" (pool_run ?journal:None);
  check_driver "dispatcher" (local_dispatch ?journal:None)

(* --- Chaos (one real fan-out with planted faults) ------------------------ *)

let chaos_small_cluster () =
  let cfg =
    {
      (Chaos.default_config ~dir:(tmp "chaos")) with
      Chaos.workers = 2;
      jobs = 5;
      deadline = 3.0;
      kill_worker = true;
      duplicate = true;
    }
  in
  match Chaos.run cfg with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok report ->
      List.iter
        (fun (c : Chaos.check) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s" c.Chaos.k_name c.Chaos.k_detail)
            true c.Chaos.k_pass)
        report.Chaos.checks

let suite =
  [
    test "retry: backoff delays stay in [base, cap+base]" retry_backoff_bounds;
    test "retry: exhaustion counts attempts" retry_exhausted;
    test "lease: grant, accept, duplicate fenced" lease_grant_and_accept;
    test "lease: stale epoch fenced after failover" lease_fencing_stale_epoch;
    test "lease: expiry rescinds a slow-loris lease" lease_expiry_rescinds;
    test "lease: heartbeat death requeues to survivor"
      lease_heartbeat_death_requeues;
    test "lease: exhausted tries escalate to local"
      lease_exhaustion_goes_local;
    test "lease: empty cluster goes local after warmup"
      lease_no_workers_local_after_warmup;
    test "lease: local_ok=false keeps the job queued"
      lease_local_forbidden_waits;
    test "lease: wire-less jobs never leave the host"
      lease_wireless_job_runs_local;
    test "wire: manifest job id survives the wire" wire_manifest_roundtrip;
    test "wire: explore point key survives the wire" wire_explore_roundtrip;
    test "wire: garbage rejected with typed code" wire_rejects_garbage;
    test "endpoint: parse forms and errors" endpoint_parse;
    test "client: connect error reports attempt count"
      client_reports_attempts;
    test "dispatcher: no endpoints degenerates to local pool"
      dispatcher_pure_local_run;
    test "dispatcher: resume replays without re-running"
      dispatcher_resume_replays;
    test "chaos: kill -9 mid-lease loses nothing" chaos_small_cluster;
    test "driver: pool and dispatcher retry alike" driver_retry_parity;
    test "driver: pool and dispatcher stop alike on SIGINT"
      driver_interrupt_parity;
  ]
