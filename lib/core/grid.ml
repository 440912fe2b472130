type placement = { op : int; col : int; step : int; span : int; seq : int }

exception Invariant of Diag.t

let invariant fmt =
  Printf.ksprintf
    (fun s -> raise (Invariant (Diag.internal ~code:"grid.invariant" s)))
    fmt

(* Word-packed occupancy, column-major.  Each column owns [wpc] machine words
   whose bits mirror its steps: bit [s-1] of the column's word row is set iff
   cell (col, s) holds at least one op.  A span-fit probe ANDs at most
   [span/word_bits + 2] words against a range mask instead of walking cells,
   and per-column fill comes from popcounts over the same words, so it cannot
   drift out of sync with the cells the way a maintained counter can.

   Occupant identity (needed for mutual-exclusion sharing and [conflicts])
   lives in a parallel [owner] array: -1 = empty, op id = sole occupant, -2 =
   several mutually-exclusive occupants, spilled to the small [shared]
   table.  Multi-occupancy only arises from guard-disjoint ops, so the spill
   table stays tiny. *)

let word_bits = Sys.int_size (* 63 on 64-bit: bits per occupancy word *)

let no_owner = -1
let shared_owner = -2

type t = {
  horizon : int;
  wpc : int; (* occupancy words per column *)
  mutable ncols : int;
  mutable occ : int array; (* ncols * wpc packed rows *)
  mutable owner : int array; (* ncols * horizon cell occupants *)
  shared : (int, int list) Hashtbl.t; (* cell -> occupants, newest first *)
  by_op : (int, placement) Hashtbl.t;
  mutable next_seq : int;
}

let create ~steps ~cols =
  let ncols = max 0 cols in
  let wpc = max 1 ((steps + word_bits - 1) / word_bits) in
  {
    horizon = steps;
    wpc;
    ncols;
    occ = Array.make (ncols * wpc) 0;
    owner = Array.make (ncols * steps) no_owner;
    shared = Hashtbl.create 8;
    by_op = Hashtbl.create 16;
    next_seq = 0;
  }

let steps t = t.horizon
let cols t = t.ncols

let cell_index t ~col ~step = ((col - 1) * t.horizon) + (step - 1)

(* All-ones over bits [lo..hi] (inclusive) of one word; [hi - lo + 1] may be
   the full word width, where [lsl] would be unspecified. *)
let range_mask lo hi =
  let width = hi - lo + 1 in
  if width >= word_bits then -1 lsl lo else ((1 lsl width) - 1) lsl lo

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let set_bit t ~col ~step =
  let s = step - 1 in
  let w = ((col - 1) * t.wpc) + (s / word_bits) in
  t.occ.(w) <- t.occ.(w) lor (1 lsl (s mod word_bits))

let clear_bit t ~col ~step =
  let s = step - 1 in
  let w = ((col - 1) * t.wpc) + (s / word_bits) in
  t.occ.(w) <- t.occ.(w) land lnot (1 lsl (s mod word_bits))

(* True when every cell of [col] over steps [lo..hi] (1-based, clamped by the
   caller) is empty: the packed-row fit probe, O(span / word_bits). *)
let span_clear t ~col ~lo ~hi =
  let base = (col - 1) * t.wpc in
  let b0 = lo - 1 and b1 = hi - 1 in
  let w0 = b0 / word_bits and w1 = b1 / word_bits in
  if w0 = w1 then
    t.occ.(base + w0) land range_mask (b0 mod word_bits) (b1 mod word_bits) = 0
  else begin
    let ok = ref (t.occ.(base + w0) land range_mask (b0 mod word_bits) (word_bits - 1) = 0) in
    for w = w0 + 1 to w1 - 1 do
      if t.occ.(base + w) <> 0 then ok := false
    done;
    !ok && t.occ.(base + w1) land range_mask 0 (b1 mod word_bits) = 0
  end

let fill t ~col =
  if col < 1 || col > t.ncols then 0
  else begin
    let base = (col - 1) * t.wpc in
    let n = ref 0 in
    for w = 0 to t.wpc - 1 do
      n := !n + popcount t.occ.(base + w)
    done;
    !n
  end

let ensure_cols t n =
  if n > t.ncols then begin
    let occ = Array.make (n * t.wpc) 0 in
    Array.blit t.occ 0 occ 0 (t.ncols * t.wpc);
    let owner = Array.make (n * t.horizon) no_owner in
    Array.blit t.owner 0 owner 0 (t.ncols * t.horizon);
    t.occ <- occ;
    t.owner <- owner;
    t.ncols <- n
  end

(* Occupants of one cell, newest first. *)
let occupants_of_cell t idx =
  match t.owner.(idx) with
  | o when o = no_owner -> []
  | o when o = shared_owner -> (
      match Hashtbl.find_opt t.shared idx with
      | Some ops -> ops
      | None -> invariant "Grid: shared cell %d lost its occupant list" idx)
  | o -> [ o ]

let add_occupant t idx op =
  match t.owner.(idx) with
  | o when o = no_owner -> t.owner.(idx) <- op
  | o when o = shared_owner ->
      Hashtbl.replace t.shared idx (op :: Hashtbl.find t.shared idx)
  | o ->
      t.owner.(idx) <- shared_owner;
      Hashtbl.replace t.shared idx [ op; o ]

(* Remove [op] from a cell; true when the cell became empty. *)
let remove_occupant t idx op =
  match t.owner.(idx) with
  | o when o = op ->
      t.owner.(idx) <- no_owner;
      true
  | o when o = shared_owner -> (
      let ops = List.filter (fun o -> o <> op) (Hashtbl.find t.shared idx) in
      match ops with
      | [ last ] ->
          Hashtbl.remove t.shared idx;
          t.owner.(idx) <- last;
          false
      | _ :: _ ->
          Hashtbl.replace t.shared idx ops;
          false
      | [] -> invariant "Grid: shared cell %d held fewer than two ops" idx)
  | _ ->
      invariant "Grid: op %d missing from cell %d it was recorded to occupy"
        op idx

let place t ~op ~col ~step ~span =
  if col < 1 || col > t.ncols then
    invalid_arg (Printf.sprintf "Grid.place: column %d outside 1..%d" col t.ncols);
  if step < 1 || step + span - 1 > t.horizon then
    invalid_arg
      (Printf.sprintf "Grid.place: steps %d..%d outside 1..%d" step
         (step + span - 1) t.horizon);
  if Hashtbl.mem t.by_op op then
    invalid_arg (Printf.sprintf "Grid.place: op %d already placed" op);
  for s = step to step + span - 1 do
    add_occupant t (cell_index t ~col ~step:s) op;
    set_bit t ~col ~step:s
  done;
  Hashtbl.replace t.by_op op { op; col; step; span; seq = t.next_seq };
  t.next_seq <- t.next_seq + 1

(* Unplacing an op that is not placed — or whose [by_op] record disagrees
   with the cells — is a corrupted-bookkeeping bug that previously could
   decrement fill counters for cells never freed; both now raise a typed
   [Invariant] carrying a [Diag.t] instead of silently corrupting state. *)
let unplace t ~op =
  match Hashtbl.find_opt t.by_op op with
  | None ->
      raise
        (Invariant
           (Diag.internal ~code:"grid.unplace-unplaced"
              (Printf.sprintf
                 "Grid.unplace: op %d is not placed (double unplace or \
                  never placed)"
                 op)))
  | Some p ->
      for s = p.step to p.step + p.span - 1 do
        let idx = cell_index t ~col:p.col ~step:s in
        if remove_occupant t idx op then clear_bit t ~col:p.col ~step:s
      done;
      Hashtbl.remove t.by_op op

let clear t =
  Array.fill t.occ 0 (Array.length t.occ) 0;
  Array.fill t.owner 0 (Array.length t.owner) no_owner;
  Hashtbl.reset t.shared;
  Hashtbl.reset t.by_op;
  t.next_seq <- 0

let steps_overlap = Rtl.Lifetime.steps_overlap

(* Fold [f] over the occupant lists of every cell the candidate placement
   [col/step/span] touches. Under functional pipelining a candidate step
   collides with every grid step congruent to it modulo the latency, so the
   scan walks each congruence class once. *)
let fold_covered t ~latency ~col ~step ~span f acc =
  if col < 1 || col > t.ncols then acc
  else
    match latency with
    | None ->
        let lo = max 1 step and hi = min t.horizon (step + span - 1) in
        let acc = ref acc in
        for s = lo to hi do
          let idx = cell_index t ~col ~step:s in
          if t.owner.(idx) <> no_owner then
            acc := f !acc (occupants_of_cell t idx)
        done;
        !acc
    | Some l ->
        let seen = Array.make l false in
        let acc = ref acc in
        for k = 0 to span - 1 do
          let r = ((step + k - 1) mod l + l) mod l in
          if not seen.(r) then begin
            seen.(r) <- true;
            let s = ref (r + 1) in
            while !s <= t.horizon do
              let idx = cell_index t ~col ~step:!s in
              if t.owner.(idx) <> no_owner then
                acc := f !acc (occupants_of_cell t idx);
              s := !s + l
            done
          end
        done;
        !acc

let seq_of t op = (Hashtbl.find t.by_op op).seq

let conflicts t ~latency ~col ~step ~span =
  fold_covered t ~latency ~col ~step ~span
    (fun acc occupants ->
      List.fold_left
        (fun acc o -> if List.mem o acc then acc else o :: acc)
        acc occupants)
    []
  |> List.sort (fun a b -> compare (seq_of t b) (seq_of t a))

exception Blocked

(* Closure-free candidate probe, the kernel's hot path.  Without functional
   pipelining the packed rows answer the common all-empty case in O(span /
   word_bits); only candidates overlapping occupied cells walk their
   occupants to test mutual exclusion. *)
let free_at t ~exclusive ~latency ~op ~span ~col ~step =
  if col < 1 || col > t.ncols then true
  else
    match latency with
    | None -> (
        let lo = max 1 step and hi = min t.horizon (step + span - 1) in
        hi < lo
        || span_clear t ~col ~lo ~hi
        ||
        try
          for s = lo to hi do
            let idx = cell_index t ~col ~step:s in
            if t.owner.(idx) <> no_owner then
              if
                not
                  (List.for_all
                     (fun other -> exclusive op other)
                     (occupants_of_cell t idx))
              then raise Blocked
          done;
          true
        with Blocked -> false)
    | Some _ -> (
        match
          fold_covered t ~latency ~col ~step ~span
            (fun () occupants ->
              if List.for_all (fun other -> exclusive op other) occupants then
                ()
              else raise Blocked)
            ()
        with
        | () -> true
        | exception Blocked -> false)

let free t ~exclusive ~latency ~op ~span (pos : Frames.pos) =
  free_at t ~exclusive ~latency ~op ~span ~col:pos.Frames.col
    ~step:pos.Frames.step

let occupants t ~col ~step =
  if col < 1 || col > t.ncols || step < 1 || step > t.horizon then []
  else occupants_of_cell t (cell_index t ~col ~step)

let used_cols t =
  let col_empty c =
    let base = (c - 1) * t.wpc in
    let rec go w = w >= t.wpc || (t.occ.(base + w) = 0 && go (w + 1)) in
    go 0
  in
  let rec go c = if c < 1 then 0 else if col_empty c then go (c - 1) else c in
  go t.ncols

let placements t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.by_op []
  |> List.sort (fun a b -> compare a.seq b.seq)
  |> List.map (fun p -> (p.op, p.col, p.step, p.span))
