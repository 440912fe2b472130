module Jsonl = Batch.Jsonl

type config = {
  socket : string;
  jobs : int;
  requests : int;
  graph : string;
  plant_hang : bool;
  plant_oversize : bool;
  plant_half_close : bool;
  timeout : float;
  expect_hit_rate : float option;
  log : string -> unit;
}

let default ~socket =
  {
    socket;
    jobs = 8;
    requests = 25;
    graph = "diffeq";
    plant_hang = false;
    plant_oversize = false;
    plant_half_close = false;
    timeout = 30.;
    expect_hit_rate = None;
    log = (fun (_ : string) -> ());
  }

type report = {
  b_sent : int;
  b_ok : int;
  b_cached : int;
  b_errors : (string * int) list;
  b_io_failures : int;
  b_failures : string list;
}

(* --- One client's tally ------------------------------------------------- *)

type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable cached : int;
  mutable io : int;
  errors : (string, int) Hashtbl.t;
}

let tally () =
  { sent = 0; ok = 0; cached = 0; io = 0; errors = Hashtbl.create 8 }

let add_errors t code n =
  Hashtbl.replace t.errors code
    (n + Option.value ~default:0 (Hashtbl.find_opt t.errors code))

let count_error t code = add_errors t code 1

let count_response t = function
  | Error (_ : Diag.t) -> t.io <- t.io + 1
  | Ok (r : Protocol.response) ->
      if r.Protocol.r_ok then begin
        t.ok <- t.ok + 1;
        if r.Protocol.r_cached then t.cached <- t.cached + 1
      end
      else
        count_error t
          (match r.Protocol.r_diag with
          | Some d -> d.Diag.code
          | None -> "unknown")

let tally_to_json t =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("sent", Jsonl.Int t.sent);
         ("ok", Jsonl.Int t.ok);
         ("cached", Jsonl.Int t.cached);
         ("io", Jsonl.Int t.io);
         ( "errors",
           Jsonl.Obj
             (Hashtbl.fold
                (fun code n acc -> (code, Jsonl.Int n) :: acc)
                t.errors []) );
       ])

(* --- The corpus --------------------------------------------------------- *)

let weights_cycle = [| "1/1/1/1"; "1/1/1/20"; "2/1/1/1" |]

let schedule_payload cfg ~id ~seq ~inject ~deadline =
  let fields =
    [
      ("spec", Jsonl.String cfg.graph);
      ("cs", Jsonl.Int 0);
      ("weights", Jsonl.String weights_cycle.(seq mod 3));
      ("style", Jsonl.Int (1 + (seq / 3 mod 2)));
    ]
    @ (match inject with
      | None -> []
      | Some f -> [ ("inject", Jsonl.String f) ])
    @
    match deadline with
    | None -> []
    | Some d -> [ ("deadline", Jsonl.Float d) ]
  in
  Client.build ~op:"schedule" ~id fields

(* A fresh connection per planted fault, so a poisoned stream (oversize)
   or a half-closed socket never perturbs the client's main session. *)
let on_fresh_conn cfg t f =
  match Client.connect cfg.socket with
  | Error _ -> t.io <- t.io + 1
  | Ok c ->
      f c;
      Client.close c

let fire_oversize cfg t =
  on_fresh_conn cfg t (fun c ->
      t.sent <- t.sent + 1;
      let huge = String.make (Jsonl.default_max_document_bytes + 1) 'x' in
      match Client.send c huge with
      | Error _ ->
          (* The daemon may reset before the write completes; that still
             proves the frame was refused. *)
          count_error t "serve.frame-too-large"
      | Ok () -> (
          match Client.recv ~timeout:cfg.timeout c with
          | Ok (Some r) -> count_response t (Ok r)
          | Ok None -> count_error t "serve.frame-too-large"
          | Error _ -> count_error t "serve.frame-too-large"))

let fire_half_close cfg t ~id ~seq =
  on_fresh_conn cfg t (fun c ->
      t.sent <- t.sent + 1;
      let payload = schedule_payload cfg ~id ~seq ~inject:None ~deadline:None in
      match Client.send c payload with
      | Error _ -> t.io <- t.io + 1
      | Ok () -> (
          (try Unix.shutdown (Client.fd c) Unix.SHUTDOWN_SEND
           with Unix.Unix_error _ -> ());
          match Client.recv ~timeout:cfg.timeout c with
          | Ok (Some r) -> count_response t (Ok r)
          | Ok None | Error _ -> t.io <- t.io + 1))

let run_client cfg ~index =
  let t = tally () in
  match Client.connect cfg.socket with
  | Error _ ->
      t.io <- t.io + cfg.requests;
      t.sent <- t.sent + cfg.requests;
      t
  | Ok c ->
      for j = 0 to cfg.requests - 1 do
        let seq = (index * cfg.requests) + j in
        let id = Printf.sprintf "c%d-%d" index j in
        if cfg.plant_oversize && j mod 11 = 5 then fire_oversize cfg t
        else if cfg.plant_half_close && j mod 13 = 9 then
          fire_half_close cfg t ~id ~seq
        else if cfg.plant_hang && j mod 7 = 3 then begin
          t.sent <- t.sent + 1;
          count_response t
            (Client.request ~timeout:cfg.timeout c
               (schedule_payload cfg ~id ~seq ~inject:(Some "hang")
                  ~deadline:(Some 1.0)))
        end
        else if j mod 17 = 1 then begin
          t.sent <- t.sent + 1;
          count_response t
            (Client.request ~timeout:cfg.timeout c
               (Client.build ~op:"ping" ~id []))
        end
        else if j mod 5 = 4 then begin
          t.sent <- t.sent + 1;
          count_response t
            (Client.request ~timeout:cfg.timeout c
               (Client.build ~op:"lint" ~id
                  [ ("spec", Jsonl.String cfg.graph) ]))
        end
        else begin
          t.sent <- t.sent + 1;
          count_response t
            (Client.request ~timeout:cfg.timeout c
               (schedule_payload cfg ~id ~seq ~inject:None ~deadline:None))
        end
      done;
      Client.close c;
      t

(* --- Clients as pool jobs ----------------------------------------------- *)

(* Each client is one pool job, so it runs forked and leaves only through
   _exit; its tally comes back as the job's payload. *)
let run cfg =
  let jobs = max 1 cfg.jobs in
  let client index =
    Batch.Pool.job ~id:(string_of_int index) ~seed:index
      ~descr:(Printf.sprintf "client %d" index)
      (fun () ->
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Ok (tally_to_json (run_client cfg ~index)))
  in
  match
    Batch.Pool.run ~workers:jobs ~retry:Batch.Retry.none
      ~deadline:(cfg.timeout *. float_of_int (cfg.requests + 1))
      (List.init jobs client)
  with
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Diag.internal ~code:"serve.bombard"
           ("cannot fork load clients: " ^ Unix.error_message err))
  | Error d -> Error d
  | Ok outcome ->
      let agg = tally () in
      List.iter
        (fun (r : Batch.Journal.record) ->
          let doc =
            match r.Batch.Journal.verdict with
            | Batch.Verdict.Done body -> Result.to_option (Jsonl.parse body)
            | _ -> None
          in
          match doc with
          | None -> agg.io <- agg.io + cfg.requests
          | Some doc -> (
              let count key = Option.value ~default:0 (Jsonl.int key doc) in
              agg.sent <- agg.sent + count "sent";
              agg.ok <- agg.ok + count "ok";
              agg.cached <- agg.cached + count "cached";
              agg.io <- agg.io + count "io";
              match Jsonl.member "errors" doc with
              | Some (Jsonl.Obj fields) ->
                  List.iter
                    (fun (code, v) ->
                      Option.iter (add_errors agg code) (Jsonl.to_int v))
                    fields
              | _ -> ()))
        outcome.Batch.Pool.records;
      let errors =
        Hashtbl.fold (fun code n acc -> (code, n) :: acc) agg.errors []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
      if agg.io > 0 then
        fail "%d transport failure(s): some requests got no typed response"
          agg.io;
      if agg.ok = 0 then fail "no request succeeded";
      let error_count code =
        Option.value ~default:0 (List.assoc_opt code errors)
      in
      if cfg.plant_hang && error_count "serve.deadline" = 0 then
        fail "planted hangs produced no serve.deadline verdicts";
      if cfg.plant_oversize && error_count "serve.frame-too-large" = 0 then
        fail "planted oversize frames produced no serve.frame-too-large";
      (match cfg.expect_hit_rate with
      | None -> ()
      | Some want ->
          let got = float_of_int agg.cached /. float_of_int (max 1 agg.ok) in
          if got < want then
            fail "cache hit rate %.2f below the expected %.2f" got want);
      Ok
        {
          b_sent = agg.sent;
          b_ok = agg.ok;
          b_cached = agg.cached;
          b_errors = errors;
          b_io_failures = agg.io;
          b_failures = List.rev !failures;
        }

let report_to_json r =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("sent", Jsonl.Int r.b_sent);
         ("ok", Jsonl.Int r.b_ok);
         ("cached", Jsonl.Int r.b_cached);
         ( "errors",
           Jsonl.Obj (List.map (fun (c, n) -> (c, Jsonl.Int n)) r.b_errors) );
         ("io_failures", Jsonl.Int r.b_io_failures);
         ( "failures",
           Jsonl.List (List.map (fun m -> Jsonl.String m) r.b_failures) );
         ("passed", Jsonl.Bool (r.b_failures = []));
       ])
