type record = {
  id : string;
  seed : int;
  descr : string;
  attempt : int;
  final : bool;
  verdict : Verdict.t;
  seconds : float;
}

let record_to_json r =
  Jsonl.to_string
    (Jsonl.Obj
       ([
          ("id", Jsonl.String r.id);
          ("seed", Jsonl.Int r.seed);
          ("descr", Jsonl.String r.descr);
          ("attempt", Jsonl.Int r.attempt);
          ("final", Jsonl.Bool r.final);
          ("seconds", Jsonl.Float r.seconds);
        ]
       @ Verdict.to_fields r.verdict))

let record_of_json v =
  match
    ( Jsonl.str "id" v,
      Jsonl.int "seed" v,
      Jsonl.str "descr" v,
      Jsonl.int "attempt" v,
      Jsonl.member "final" v,
      Jsonl.float "seconds" v )
  with
  | Some id, Some seed, Some descr, Some attempt, Some (Jsonl.Bool final),
    Some seconds ->
      Result.map
        (fun verdict -> { id; seed; descr; attempt; final; verdict; seconds })
        (Verdict.of_fields v)
  | _ -> Error "record missing id/seed/descr/attempt/final/seconds"

type writer = Jsonl.writer

let open_writer = Jsonl.open_writer ~code:"batch.journal-write"
let append w r = Jsonl.append w (record_to_json r)
let close = Jsonl.close

let load path =
  Jsonl.load ~code:"batch.journal" ~what:"journal record" path record_of_json

let finals records =
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> if r.final then Hashtbl.replace tbl r.id r) records;
  tbl

let last_attempts records =
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace tbl r.id r) records;
  tbl

let equivalent a b =
  let fa = finals a and fb = finals b in
  Hashtbl.length fa = Hashtbl.length fb
  && Hashtbl.fold
       (fun id (ra : record) ok ->
         ok
         &&
         match Hashtbl.find_opt fb id with
         | Some rb -> Verdict.equal ra.verdict rb.verdict
         | None -> false)
       fa true
