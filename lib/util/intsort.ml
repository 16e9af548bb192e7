(* Insertion sort for the short or nearly ascending arrays the CDFG's
   use index and canonical order see (appends, journal buffers, one
   node's operand hashes); a copy through the library sort otherwise.
   The copy comes back with a plain loop: [Array.blit] into a major-heap
   array pays a write barrier per element. *)
let sort_prefix (a : int array) n =
  if n <= 32 then
    for i = 1 to n - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let s = Array.sub a 0 n in
    Array.sort Int.compare s;
    for i = 0 to n - 1 do
      a.(i) <- s.(i)
    done
  end
