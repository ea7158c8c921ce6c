/**
 * @file
 * Flat cell images of terms: the compact, directly decodable form the
 * host keeps for stored clause heads.
 *
 * A term is written depth first as 32-bit cells, normally one per
 * node, with the tag in the low 3 bits:
 *
 *   Atom    sym << 3                         sym < 2^29
 *   Int     value << 3 | 1                   -2^28 <= value < 2^28
 *   Float   id << 3 | 2                      id < 2^29
 *   Var     var << 3 | 3                     var < 2^29
 *   Struct  functor << 8 | arity << 3 | 4    functor < 2^24,
 *           then each argument               1 <= arity <= 31
 *   List    count << 4 | tail << 3 | 5       count < 2^28,
 *           then each element, then the      tail = 1 iff unterminated
 *           tail term if tail = 1
 *   Wide    kind << 3 | 7                    any node the inline form
 *           then the fields in full cells:   cannot hold
 *           Atom/Float/Var: the id; Int: low and high halves of the
 *           64-bit value; Struct: functor, arity; List: count, tail.
 *           Children follow as in the inline form.
 *
 * Variable names are not kept: a decoded variable is anonymous, which
 * unification never looks at.  An image is self-delimiting, so a
 * store needs only the address of its first cell.
 */

#ifndef CLARE_TERM_CELL_IMAGE_HH
#define CLARE_TERM_CELL_IMAGE_HH

#include <cstdint>
#include <vector>

#include "term/term.hh"

namespace clare::term {

/** One cell of a term image. */
using Cell = std::uint32_t;

/** Append the cell image of term @p t of @p arena to @p out. */
void encodeCells(const TermArena &arena, TermRef t, std::vector<Cell> &out);

/**
 * Rebuild a cell image as nodes of @p arena, adding @p var_offset to
 * every variable id (standardizing the term apart from what the arena
 * already holds, as TermArena::import does).
 *
 * @return the handle of the decoded root.
 */
TermRef decodeCells(TermArena &arena, const Cell *cells, VarId var_offset);

} // namespace clare::term

#endif // CLARE_TERM_CELL_IMAGE_HH
