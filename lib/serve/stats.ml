module Jsonl = Batch.Jsonl

type t = {
  started : float;
  by_op : (string, int) Hashtbl.t;
  mutable done_ : int;
  mutable rejected : int;
  mutable timeout : int;
  mutable oom : int;
  mutable crashed : int;
  mutable ok : int;
  mutable error : int;
}

let create () =
  {
    started = Unix.gettimeofday ();
    by_op = Hashtbl.create 8;
    done_ = 0;
    rejected = 0;
    timeout = 0;
    oom = 0;
    crashed = 0;
    ok = 0;
    error = 0;
  }

let note_request t op =
  Hashtbl.replace t.by_op op
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_op op))

let note_verdict t = function
  | Batch.Verdict.Done _ -> t.done_ <- t.done_ + 1
  | Batch.Verdict.Rejected _ -> t.rejected <- t.rejected + 1
  | Batch.Verdict.Timeout -> t.timeout <- t.timeout + 1
  | Batch.Verdict.Oom -> t.oom <- t.oom + 1
  | Batch.Verdict.Crashed _ -> t.crashed <- t.crashed + 1

let note_ok t = t.ok <- t.ok + 1
let note_error t = t.error <- t.error + 1

let to_json t ~queue_depth ~in_flight ~connections ~shed ~workers ~cache =
  let ops =
    Hashtbl.fold (fun op n acc -> (op, Jsonl.Int n) :: acc) t.by_op []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let c = cache in
  let lookups = c.Explore.Cache.hits + c.Explore.Cache.misses in
  let hit_rate =
    if lookups = 0 then 0.
    else float_of_int c.Explore.Cache.hits /. float_of_int lookups
  in
  Jsonl.Obj
    [
      ("uptime", Jsonl.Float (Unix.gettimeofday () -. t.started));
      ("requests", Jsonl.Obj ops);
      ( "verdicts",
        Jsonl.Obj
          [
            ("done", Jsonl.Int t.done_);
            ("rejected", Jsonl.Int t.rejected);
            ("timeout", Jsonl.Int t.timeout);
            ("oom", Jsonl.Int t.oom);
            ("crashed", Jsonl.Int t.crashed);
          ] );
      ("responses_ok", Jsonl.Int t.ok);
      ("responses_error", Jsonl.Int t.error);
      ("queue_depth", Jsonl.Int queue_depth);
      ("workers", Jsonl.List workers);
      ("in_flight", Jsonl.Int in_flight);
      ("connections", Jsonl.Int connections);
      ("shed", Jsonl.Int shed);
      ( "cache",
        Jsonl.Obj
          [
            ("entries", Jsonl.Int c.Explore.Cache.entries);
            ( "max_entries",
              match c.Explore.Cache.max_entries with
              | None -> Jsonl.Null
              | Some n -> Jsonl.Int n );
            ("hits", Jsonl.Int c.Explore.Cache.hits);
            ("misses", Jsonl.Int c.Explore.Cache.misses);
            ("evictions", Jsonl.Int c.Explore.Cache.evictions);
            ("hit_rate", Jsonl.Float hit_rate);
          ] );
    ]
