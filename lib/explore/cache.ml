type outcome = Metrics of Lattice.metrics | Infeasible of string

type entry = { key : string; descr : string; outcome : outcome }

let entry_to_json e =
  let outcome_fields =
    match e.outcome with
    | Metrics m -> [ ("metrics", Lattice.metrics_to_json m) ]
    | Infeasible code -> [ ("infeasible", Batch.Jsonl.String code) ]
  in
  Batch.Jsonl.to_string
    (Batch.Jsonl.Obj
       ([
          ("key", Batch.Jsonl.String e.key);
          ("descr", Batch.Jsonl.String e.descr);
        ]
       @ outcome_fields))

let entry_of_json doc =
  match (Batch.Jsonl.str "key" doc, Batch.Jsonl.str "descr" doc) with
  | Some key, Some descr -> (
      match
        (Batch.Jsonl.member "metrics" doc, Batch.Jsonl.str "infeasible" doc)
      with
      | Some m, None ->
          Result.map
            (fun m -> { key; descr; outcome = Metrics m })
            (Lattice.metrics_of_json m)
      | None, Some code -> Ok { key; descr; outcome = Infeasible code }
      | _ -> Error "cache entry needs exactly one of metrics/infeasible")
  | _ -> Error "cache entry missing key/descr"

(* LRU bookkeeping is lazy: every touch appends (key, tick) to the queue
   and stamps the node; eviction pops the queue head and acts only when
   the popped tick is still the node's current one, so a key touched N
   times costs N stale queue lines instead of a doubly-linked list. *)
type node = { entry : entry; mutable tick : int }

type t = {
  tbl : (string, node) Hashtbl.t;
  lru : (string * int) Queue.t;
  pins : (string, int) Hashtbl.t;  (* refcounted in-flight keys *)
  max_entries : int option;
  mutable next_tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let empty ?max_entries () =
  {
    tbl = Hashtbl.create 16;
    lru = Queue.create ();
    pins = Hashtbl.create 4;
    max_entries;
    next_tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let size t = Hashtbl.length t.tbl

let touch t node key =
  node.tick <- t.next_tick;
  Queue.add (key, t.next_tick) t.lru;
  t.next_tick <- t.next_tick + 1

let pin t key =
  Hashtbl.replace t.pins key
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.pins key))

let unpin t key =
  match Hashtbl.find_opt t.pins key with
  | Some n when n <= 1 -> Hashtbl.remove t.pins key
  | Some n -> Hashtbl.replace t.pins key (n - 1)
  | None -> ()

let pinned t key = Hashtbl.mem t.pins key

(* The budget bounds the scan: if everything left is pinned, the cache
   stays over cap (soft cap) rather than spinning on re-queued keys. *)
let evict t =
  match t.max_entries with
  | None -> ()
  | Some cap ->
      let budget = ref (Queue.length t.lru) in
      while size t > cap && !budget > 0 do
        decr budget;
        match Queue.take_opt t.lru with
        | None -> budget := 0
        | Some (key, tick) -> (
            match Hashtbl.find_opt t.tbl key with
            | Some node when node.tick = tick ->
                if pinned t key then touch t node key
                else begin
                  Hashtbl.remove t.tbl key;
                  t.evictions <- t.evictions + 1
                end
            | _ -> ())
      done

let insert t e =
  let node = { entry = e; tick = 0 } in
  Hashtbl.replace t.tbl e.key node;
  touch t node e.key;
  evict t

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some node ->
      t.hits <- t.hits + 1;
      touch t node key;
      Some node.entry
  | None ->
      t.misses <- t.misses + 1;
      None

let peek t key =
  Option.map (fun n -> n.entry) (Hashtbl.find_opt t.tbl key)

type stats = {
  entries : int;
  max_entries : int option;
  hits : int;
  misses : int;
  evictions : int;
}

let stats t =
  {
    entries = size t;
    max_entries = t.max_entries;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }

(* Later entries for a key win: an append-only store never rewrites. *)
let load ?max_entries path =
  Result.map
    (fun entries ->
      let t = empty ?max_entries () in
      List.iter (insert t) entries;
      t)
    (Batch.Jsonl.load ~code:"explore.cache" ~what:"cache entry" path
       entry_of_json)

type writer = Batch.Jsonl.writer

let open_writer = Batch.Jsonl.open_writer ~code:"explore.cache-write"
let append w e = Batch.Jsonl.append w (entry_to_json e)
let close = Batch.Jsonl.close
