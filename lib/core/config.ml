type chaining = {
  prop_delay : Dfg.Op.kind -> float;
  clock : float;
}

type t = {
  delays : Dfg.Op.kind -> int;
  pipelined : Dfg.Op.kind -> bool;
  chaining : chaining option;
  node_delay : (string * float) list;
  functional_latency : int option;
  share_mutex : bool;
  mem_ports : int option;
}

let default =
  {
    delays = (fun _ -> 1);
    pipelined = (fun _ -> false);
    chaining = None;
    node_delay = [];
    functional_latency = None;
    share_mutex = true;
    mem_ports = None;
  }

(* The pipelined kinds are found once, not per call: [span] is asked for
   every pair of ops the audits compare, and [Celllib.Library.candidates]
   builds a fresh sorted list. *)
let of_library lib =
  let pipelined =
    List.filter
      (fun kind ->
        match Celllib.Library.candidates lib kind with
        | [] -> false
        | cands -> List.for_all (fun a -> a.Celllib.Library.stages > 1) cands)
      Dfg.Op.all
  in
  {
    default with
    delays = lib.Celllib.Library.cycles;
    pipelined = (fun kind -> List.mem kind pipelined);
  }

let exclusive t g i j = t.share_mutex && Dfg.Graph.mutually_exclusive g i j

let delay t kind = max 1 (t.delays kind)
let span t kind = if t.pipelined kind then 1 else delay t kind

(* Ports a bank offers per control step: the configuration override (the
   explore/CLI axis) wins over the graph's own [mem] declaration. *)
let bank_ports t g bank =
  match t.mem_ports with
  | Some p -> p
  | None -> Dfg.Graph.bank_ports g bank

(* Hard per-class capacity limits induced by memory banks: every access
   class "mem:BANK" is capped at the bank's port count. *)
let mem_limits t g =
  List.map (fun b -> (Dfg.Graph.mem_class b, bank_ports t g b))
    (Dfg.Graph.bank_names g)

let node_prop_override t (nd : Dfg.Graph.node) =
  match t.node_delay with
  | [] -> None
  | l -> List.assoc_opt nd.Dfg.Graph.name l

let node_prop t prop_delay (nd : Dfg.Graph.node) =
  match node_prop_override t nd with
  | Some d -> d
  | None -> prop_delay nd.Dfg.Graph.kind

(* Canonical form: the functional fields are sampled over the closed kind
   alphabet, every field is rendered as "name=value", and the fields are
   sorted by name — so the string depends only on the configuration's
   observable behaviour, not on record field order, on whether a value was
   spelled out or defaulted, or on what the defaults happen to be. *)

let float_repr f = Printf.sprintf "%.12g" f

let per_kind render f =
  String.concat ","
    (List.map (fun k -> Dfg.Op.to_string k ^ ":" ^ render (f k)) Dfg.Op.all)

let canonical t =
  let fields =
    [
      ( "chaining",
        match t.chaining with
        | None -> "none"
        | Some c ->
            Printf.sprintf "{clock=%s;prop=%s}" (float_repr c.clock)
              (per_kind float_repr c.prop_delay) );
      (* Effective (clamped) delays: a raw delay of 0 behaves as 1. *)
      ("delays", per_kind string_of_int (delay t));
      ( "node_delay",
        match t.node_delay with
        | [] -> "none"
        | l ->
            "{"
            ^ String.concat ","
                (List.map
                   (fun (n, d) -> n ^ ":" ^ float_repr d)
                   (List.sort
                      (fun (a, _) (b, _) -> String.compare a b)
                      l))
            ^ "}" );
      ( "functional_latency",
        match t.functional_latency with
        | None -> "none"
        | Some l -> string_of_int l );
      ("pipelined", per_kind string_of_bool t.pipelined);
      ("share_mutex", string_of_bool t.share_mutex);
      ( "mem_ports",
        match t.mem_ports with
        | None -> "declared"
        | Some p -> string_of_int p );
    ]
  in
  String.concat ";"
    (List.map
       (fun (k, v) -> k ^ "=" ^ v)
       (List.sort (fun (a, _) (b, _) -> String.compare a b) fields))

let hash t = Digest.to_hex (Digest.string (canonical t))
