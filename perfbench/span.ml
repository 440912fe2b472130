(* Spans and counters recorded from the benchmark's side of each library
   call. Nothing inside the libraries is instrumented: a span brackets one
   public call, so its self time is the call's wall time minus the spans
   opened inside it (only the benchmark's own wrappers nest).

   Spans are kept in memory and written once, at exit, as Chrome
   trace-event JSON, which Perfetto and chrome://tracing open directly. *)

module J = Batch.Jsonl

let now = Unix.gettimeofday

type event = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  name : string;
  tid : int;  (** Track: 0 for compiles, the connection for requests. *)
  t0 : float;
  t1 : float;
  args : (string * J.t) list;
}

type frame = {
  f_id : int;
  f_name : string;
  f_t0 : float;
  mutable f_child : float;  (** Wall time covered by direct children. *)
  mutable f_args : (string * J.t) list;
}

let enabled = ref false
let run_id = ref ""
let origin = ref 0.
let events : event list ref = ref []
let stack : frame list ref = ref []
let next_id = ref 1

(* Per-name self time (seconds) and counter sums since the last [take]. *)
let self_time : (string, float) Hashtbl.t = Hashtbl.create 32
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let start ~run =
  enabled := true;
  run_id := run;
  origin := now ()

let add tbl name v =
  Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(** [with_ name f] runs [f] inside a span; a no-op wrapper when tracing is
    off, so untraced runs time the bare calls. *)
let with_ ?(args = []) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.f_id | [] -> 0 in
    let fr =
      { f_id = fresh_id (); f_name = name; f_t0 = now (); f_child = 0.;
        f_args = args }
    in
    stack := fr :: !stack;
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        let dur = t1 -. fr.f_t0 in
        stack := List.tl !stack;
        (match !stack with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ());
        add self_time name (dur -. fr.f_child);
        events :=
          { id = fr.f_id; parent; name; tid = 0; t0 = fr.f_t0; t1;
            args = fr.f_args }
          :: !events)
  end

(** Add [v] to counter [name] and tag the innermost open span with it. *)
let count name v =
  if !enabled then begin
    add counters name v;
    match !stack with
    | fr :: _ -> fr.f_args <- (name, J.Float v) :: fr.f_args
    | [] -> ()
  end

(** Record a time a library measured inside the innermost open span (its
    own timing of a sub-step) as a child of that span. *)
let add_time name seconds =
  if !enabled then begin
    add self_time name seconds;
    match !stack with fr :: _ -> fr.f_child <- fr.f_child +. seconds | [] -> ()
  end

(** A finished interval recorded after the fact, e.g. one request's round
    trip; it nests under nothing. *)
let record ?(args = []) ~tid ~name ~t0 ~t1 () =
  if !enabled then
    events :=
      { id = fresh_id (); parent = 0; name; tid; t0; t1; args } :: !events

(** Self times (seconds) and counters accumulated since the last call. *)
let take () =
  let dump tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let r = (dump self_time, dump counters) in
  Hashtbl.reset self_time;
  Hashtbl.reset counters;
  r

let write path =
  let us t = (t -. !origin) *. 1e6 in
  let event e =
    J.Obj
      [
        ("name", J.String e.name);
        ("cat", J.String "perfbench");
        ("ph", J.String "X");
        ("ts", J.Float (us e.t0));
        ("dur", J.Float (us e.t1 -. us e.t0));
        ("pid", J.Int 1);
        ("tid", J.Int e.tid);
        ( "args",
          J.Obj
            ([ ("span", J.Int e.id); ("parent", J.Int e.parent);
               ("run", J.String !run_id) ]
            @ List.rev e.args) );
      ]
  in
  let doc =
    J.Obj
      [
        ("traceEvents", J.List (List.rev_map event !events));
        ("displayTimeUnit", J.String "ms");
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n')
