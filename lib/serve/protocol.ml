module Jsonl = Batch.Jsonl
module Spec = Explore.Spec

type graph_source = Inline of string | Named of string

type request =
  | Schedule of { source : graph_source; point : Explore.Lattice.point }
  | Reschedule of {
      base : graph_source;
      edited : graph_source;
      deltas : Core.Mfs.delta list;
      cs : int;
    }
  | Lint of { source : graph_source; clock : float option }
  | Explore of { spec_text : string }
  | Health
  | Stats
  | Ping

type envelope = {
  req_id : string;
  req_deadline : float option;
  request : request;
}

let request_op_name = function
  | Schedule _ -> "schedule"
  | Reschedule _ -> "reschedule"
  | Lint _ -> "lint"
  | Explore _ -> "explore"
  | Health -> "health"
  | Stats -> "stats"
  | Ping -> "ping"

(* --- Request parsing ---------------------------------------------------- *)

let bad msg = Diag.input ~code:"serve.bad-request" msg
let badf fmt = Printf.ksprintf bad fmt

let ( let* ) = Result.bind

let graph_source doc =
  match (Jsonl.str "graph" doc, Jsonl.str "spec" doc) with
  | Some src, None -> Ok (Inline src)
  | None, Some name -> Ok (Named name)
  | Some _, Some _ -> Error (bad "give either \"graph\" or \"spec\", not both")
  | None, None -> Error (bad "missing \"graph\" (inline source) or \"spec\"")

module S = Harness.Setting

(* A setting sent as a string or a number, read by its one rule; [None]
   when the request leaves it out. *)
let setting t name doc =
  let text v = Option.value ~default:"" (Jsonl.scalar v) in
  match Option.map text (Jsonl.member name doc) with
  | None -> Ok None
  | Some raw -> (
      match S.of_string t raw with
      | Some x -> Ok (Some x)
      | None -> Error (badf "%S: %S is not %s" name raw (S.expected t raw)))

let setting_or d t name doc =
  Result.map (Option.value ~default:d) (setting t name doc)

let parse_constr doc =
  let* cs = setting S.budget "cs" doc in
  let* caps = setting S.caps "limits" doc in
  match (cs, caps) with
  | Some _, Some _ -> Error (bad "give either \"cs\" or \"limits\", not both")
  | None, Some caps -> Ok (Spec.Resource caps)
  | cs, None -> Ok (Spec.Time (Option.value ~default:0 cs))

let parse_point doc =
  let* engine = setting_or Spec.Mfsa S.engine "engine" doc in
  let* style = setting_or Core.Mfsa.Unrestricted S.style "style" doc in
  let* weights = setting_or Core.Mfsa.equal_weights S.weights "weights" doc in
  let* constr = parse_constr doc in
  let* library = setting_or Spec.Default S.library "library" doc in
  let* clock = setting S.clock "clock" doc in
  let* cse =
    match Jsonl.member "cse" doc with
    | None -> Ok false
    | Some (Jsonl.Bool b) -> Ok b
    | Some _ -> Error (bad "\"cse\" must be a boolean")
  in
  let* fault =
    match Jsonl.str "inject" doc with
    | None -> Ok None
    | Some s -> (
        match Harness.Fault.of_string s with
        | Some f when Harness.Fault.is_process f -> Ok (Some f)
        | Some _ ->
            Error (badf "inject %S: only process faults (hang/segv) here" s)
        | None -> Error (badf "unknown fault %S" s))
  in
  Ok
    { Explore.Lattice.index = 0; engine; style; weights; constr; library;
      widths = false; ports = None; clock; cse; fault }

let parse_deltas doc =
  match Jsonl.member "deltas" doc with
  | None | Some (Jsonl.List []) -> Ok []
  | Some (Jsonl.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match (Jsonl.str "kind" item, Jsonl.str "node" item) with
            | Some kind, Some node -> (
                match kind with
                | "added" -> go (Core.Mfs.Op_added node :: acc) rest
                | "removed" -> go (Core.Mfs.Op_removed node :: acc) rest
                | "changed" -> go (Core.Mfs.Op_changed node :: acc) rest
                | k -> Error (badf "unknown delta kind %S" k))
            | _ -> Error (bad "each delta needs \"kind\" and \"node\""))
      in
      go [] items
  | Some _ -> Error (bad "\"deltas\" must be a list")

let parse_request_doc doc =
  let req_id = Option.value ~default:"" (Jsonl.str "id" doc) in
  let* req_deadline =
    match Jsonl.member "deadline" doc with
    | None -> Ok None
    | Some v -> (
        match Jsonl.to_float v with
        | Some d when d > 0. -> Ok (Some d)
        | _ -> Error (bad "\"deadline\" must be positive seconds"))
  in
  let* request =
    match Jsonl.str "op" doc with
    | None -> Error (bad "missing \"op\"")
    | Some "ping" -> Ok Ping
    | Some "health" -> Ok Health
    | Some "stats" -> Ok Stats
    | Some "schedule" ->
        let* source = graph_source doc in
        let* point = parse_point doc in
        Ok (Schedule { source; point })
    | Some "lint" ->
        let* source = graph_source doc in
        let* clock = setting S.clock "clock" doc in
        Ok (Lint { source; clock })
    | Some "explore" -> (
        match Jsonl.str "spec_text" doc with
        | Some spec_text when String.trim spec_text <> "" ->
            Ok (Explore { spec_text })
        | _ -> Error (bad "explore needs a non-empty \"spec_text\""))
    | Some "reschedule" -> (
        let* base =
          match Jsonl.str "base" doc with
          | Some s -> Ok (Inline s)
          | None -> Error (bad "reschedule needs \"base\" (pre-edit source)")
        in
        let* edited =
          match Jsonl.str "graph" doc with
          | Some s -> Ok (Inline s)
          | None -> Error (bad "reschedule needs \"graph\" (edited source)")
        in
        let* deltas = parse_deltas doc in
        let* cs = setting_or 0 S.budget "cs" doc in
        Ok (Reschedule { base; edited; deltas; cs }))
    | Some op -> Error (badf "unknown op %S" op)
  in
  Ok { req_id; req_deadline; request }

let parse_request ?max_bytes payload =
  let* doc = Jsonl.parse_bounded ?max_bytes payload in
  parse_request_doc doc

(* --- Responses ---------------------------------------------------------- *)

let ok_response ~id ?(cached = false) payload =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("id", Jsonl.String id);
         ("status", Jsonl.String "ok");
         ("cached", Jsonl.Bool cached);
         ("payload", payload);
       ])

let error_response ~id ?retry_after d =
  Jsonl.to_string
    (Jsonl.Obj
       ([
          ("id", Jsonl.String id);
          ("status", Jsonl.String "error");
          ("diag", Batch.Verdict.diag_to_json d);
        ]
       @
       match retry_after with
       | None -> []
       | Some s -> [ ("retry_after", Jsonl.Float s) ]))

type response = {
  r_id : string;
  r_ok : bool;
  r_cached : bool;
  r_retry_after : float option;
  r_payload : Jsonl.t option;
  r_diag : Diag.t option;
}

let parse_response_doc doc =
  let r_id = Option.value ~default:"" (Jsonl.str "id" doc) in
  match Jsonl.str "status" doc with
  | Some "ok" ->
      Ok
        {
          r_id;
          r_ok = true;
          r_cached =
            (match Jsonl.member "cached" doc with
            | Some (Jsonl.Bool b) -> b
            | _ -> false);
          r_retry_after = None;
          r_payload = Jsonl.member "payload" doc;
          r_diag = None;
        }
  | Some "error" -> (
      match Jsonl.member "diag" doc with
      | None -> Error (bad "error response missing \"diag\"")
      | Some d -> (
          match Batch.Verdict.diag_of_json d with
          | Error msg -> Error (bad ("unparsable diag: " ^ msg))
          | Ok d ->
              Ok
                {
                  r_id;
                  r_ok = false;
                  r_cached = false;
                  r_retry_after = Jsonl.float "retry_after" doc;
                  r_payload = None;
                  r_diag = Some d;
                }))
  | _ -> Error (bad "response missing \"status\"")

let parse_response ?max_bytes payload =
  let* doc = Jsonl.parse_bounded ?max_bytes payload in
  parse_response_doc doc

(* --- Worker plane -------------------------------------------------------- *)

type registration = {
  g_worker : string;
  g_capacity : int;
  g_libraries : string list;
}

type worker_msg =
  | Register of registration
  | Heartbeat of { h_worker : string; h_inflight : int }
  | Lease_result of {
      u_job : string;
      u_epoch : int;
      u_attempt : int;
      u_seconds : float;
      u_verdict : Batch.Verdict.t;
    }

type cluster_msg = Worker of worker_msg | Control of envelope

let register_msg ~worker ~capacity ~libraries =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("op", Jsonl.String "register");
         ("worker", Jsonl.String worker);
         ("capacity", Jsonl.Int capacity);
         ("libraries", Jsonl.List (List.map (fun l -> Jsonl.String l) libraries));
       ])

let heartbeat_msg ~worker ~inflight =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("op", Jsonl.String "heartbeat");
         ("worker", Jsonl.String worker);
         ("inflight", Jsonl.Int inflight);
       ])

let result_msg ~job ~epoch ~attempt ~seconds verdict =
  Jsonl.to_string
    (Jsonl.Obj
       ([
          ("op", Jsonl.String "result");
          ("job", Jsonl.String job);
          ("epoch", Jsonl.Int epoch);
          ("attempt", Jsonl.Int attempt);
          ("seconds", Jsonl.Float seconds);
        ]
       @ Batch.Verdict.to_fields verdict))

let parse_worker_msg_doc doc op =
  let worker () =
    match Jsonl.str "worker" doc with
    | Some w when w <> "" -> Ok w
    | _ -> Error (badf "%s needs a non-empty \"worker\"" op)
  in
  match op with
  | "register" ->
      let* g_worker = worker () in
      let* g_capacity =
        match Jsonl.int "capacity" doc with
        | Some n when n > 0 -> Ok n
        | _ -> Error (bad "register needs a positive \"capacity\"")
      in
      let g_libraries =
        match Jsonl.member "libraries" doc with
        | Some (Jsonl.List l) ->
            List.filter_map
              (function Jsonl.String s -> Some s | _ -> None)
              l
        | _ -> []
      in
      Ok (Register { g_worker; g_capacity; g_libraries })
  | "heartbeat" ->
      let* h_worker = worker () in
      let h_inflight = Option.value ~default:0 (Jsonl.int "inflight" doc) in
      Ok (Heartbeat { h_worker; h_inflight })
  | "result" -> (
      let* u_job =
        match Jsonl.str "job" doc with
        | Some j when j <> "" -> Ok j
        | _ -> Error (bad "result needs a non-empty \"job\"")
      in
      let* u_epoch =
        match Jsonl.int "epoch" doc with
        | Some e when e >= 0 -> Ok e
        | _ -> Error (bad "result needs a non-negative \"epoch\"")
      in
      let u_attempt = Option.value ~default:1 (Jsonl.int "attempt" doc) in
      let u_seconds = Option.value ~default:0. (Jsonl.float "seconds" doc) in
      match Batch.Verdict.of_fields doc with
      | Ok u_verdict ->
          Ok (Lease_result { u_job; u_epoch; u_attempt; u_seconds; u_verdict })
      | Error msg -> Error (badf "result verdict: %s" msg))
  | _ -> Error (badf "unknown worker op %S" op)

let parse_cluster_msg ?max_bytes payload =
  let* doc = Jsonl.parse_bounded ?max_bytes payload in
  match Jsonl.str "op" doc with
  | Some (("register" | "heartbeat" | "result") as op) ->
      Result.map (fun m -> Worker m) (parse_worker_msg_doc doc op)
  | _ -> Result.map (fun e -> Control e) (parse_request_doc doc)

type downstream =
  | Lease of {
      l_job : string;
      l_epoch : int;
      l_attempt : int;
      l_deadline : float;
      l_wire : Jsonl.t;
    }
  | Revoke of { v_job : string; v_epoch : int }
  | Ack of response

let lease_msg ~job ~epoch ~attempt ~deadline wire =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("op", Jsonl.String "lease");
         ("job", Jsonl.String job);
         ("epoch", Jsonl.Int epoch);
         ("attempt", Jsonl.Int attempt);
         ("deadline", Jsonl.Float deadline);
         ("wire", wire);
       ])

let revoke_msg ~job ~epoch =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("op", Jsonl.String "revoke");
         ("job", Jsonl.String job);
         ("epoch", Jsonl.Int epoch);
       ])

let parse_downstream ?max_bytes payload =
  let* doc = Jsonl.parse_bounded ?max_bytes payload in
  let job_epoch op =
    let* job =
      match Jsonl.str "job" doc with
      | Some j when j <> "" -> Ok j
      | _ -> Error (badf "%s needs a non-empty \"job\"" op)
    in
    let* epoch =
      match Jsonl.int "epoch" doc with
      | Some e when e >= 0 -> Ok e
      | _ -> Error (badf "%s needs a non-negative \"epoch\"" op)
    in
    Ok (job, epoch)
  in
  match Jsonl.str "op" doc with
  | Some "lease" ->
      let* l_job, l_epoch = job_epoch "lease" in
      let l_attempt = Option.value ~default:1 (Jsonl.int "attempt" doc) in
      let* l_deadline =
        match Jsonl.float "deadline" doc with
        | Some d when d > 0. -> Ok d
        | _ -> Error (bad "lease needs a positive \"deadline\"")
      in
      let* l_wire =
        match Jsonl.member "wire" doc with
        | Some w -> Ok w
        | None -> Error (bad "lease needs a \"wire\" job description")
      in
      Ok (Lease { l_job; l_epoch; l_attempt; l_deadline; l_wire })
  | Some "revoke" ->
      let* v_job, v_epoch = job_epoch "revoke" in
      Ok (Revoke { v_job; v_epoch })
  | _ -> Result.map (fun r -> Ack r) (parse_response_doc doc)
