/**
 * @file
 * The CLARE Pseudo In-line Format (PIF) type-tag scheme of Appendix
 * Table A1.
 *
 * Every PIF item starts with an 8-bit type tag.  Fixed tags encode the
 * five variable types and the pointer-based simple terms; the integer
 * in-line tag carries the most significant nibble of the value; the
 * complex-term tags carry a 5-bit arity in their low bits:
 *
 *   0010 0000  anonymous variable
 *   0010 0111  first query variable (1st-QV)
 *   0010 0101  subsequent query variable (Sub-QV)
 *   0010 0110  first DB variable (1st-DV)
 *   0010 0100  subsequent DB variable (Sub-DV)
 *   0000 1000  atom pointer (content = symbol table offset)
 *   0000 1001  float pointer (content = symbol table offset)
 *   0001 nnnn  integer in-line (nnnn = ms nibble, content = ls 32 bits)
 *   011a aaaa  structure in-line (content = functor offset)
 *   010a aaaa  structure pointer (content = functor, ext = pointer)
 *   111a aaaa  terminated list in-line
 *   101a aaaa  unterminated list in-line
 *   110a aaaa  terminated list pointer (DB side only)
 *   100a aaaa  unterminated list pointer (DB side only)
 *
 * The paper states 107 data types are supported; Table A1 as printed
 * actually spans a larger valid tag space (see countSupportedTags()),
 * and the paper gives no decomposition of the 107 — we implement the
 * table exactly as printed.
 */

#ifndef CLARE_PIF_TYPE_TAGS_HH
#define CLARE_PIF_TYPE_TAGS_HH

#include <cstdint>
#include <vector>

namespace clare::pif {

/** An 8-bit PIF type tag. */
using Tag = std::uint8_t;

/** @name Fixed tag values (variables and pointer-based simple terms). */
/// @{
constexpr Tag kAnonymousVar = 0x20;
constexpr Tag kFirstQueryVar = 0x27;
constexpr Tag kSubQueryVar = 0x25;
constexpr Tag kFirstDbVar = 0x26;
constexpr Tag kSubDbVar = 0x24;
constexpr Tag kAtomPointer = 0x08;
constexpr Tag kFloatPointer = 0x09;
/// @}

/** @name Tag-family base values (low bits carry a nibble or arity). */
/// @{
constexpr Tag kIntegerInlineBase = 0x10;      // 0001 nnnn
constexpr Tag kStructInlineBase = 0x60;       // 011a aaaa
constexpr Tag kStructPointerBase = 0x40;      // 010a aaaa
constexpr Tag kTermListInlineBase = 0xe0;     // 111a aaaa
constexpr Tag kUntermListInlineBase = 0xa0;   // 101a aaaa
constexpr Tag kTermListPointerBase = 0xc0;    // 110a aaaa
constexpr Tag kUntermListPointerBase = 0x80;  // 100a aaaa
/// @}

/** Maximum arity representable in-line (5-bit arity field). */
constexpr std::uint32_t kMaxInlineArity = 31;

/** The three matching categories of section 3.1. */
enum class TagCategory : std::uint8_t
{
    Simple,     ///< atoms, integers, floats: equality test
    Variable,   ///< skip / store / fetch-then-match
    Complex,    ///< structures and lists: repetitive matching
};

/** Finer-grained classification used by the map ROM and the matcher. */
enum class TagClass : std::uint8_t
{
    AnonymousVar,
    FirstQueryVar,
    SubQueryVar,
    FirstDbVar,
    SubDbVar,
    Atom,
    Float,
    Integer,
    StructInline,
    StructPointer,
    TermListInline,
    UntermListInline,
    TermListPointer,
    UntermListPointer,
};

/** Number of distinct TagClass values. */
constexpr std::size_t kTagClassCount = 14;

/** Classify a tag; invalid tags panic. */
TagClass tagClass(Tag tag);

/** True if the byte is a valid PIF tag. */
bool isValidTag(Tag tag);

/** Category of a (valid) tag. */
TagCategory tagCategory(Tag tag);

/** Human-readable class name (matches Table A1 row labels). */
const char *tagClassName(TagClass cls);

/** True for the five variable tags. */
bool isVariableTag(Tag tag);

/** True for any structure or list tag. */
bool isComplexTag(Tag tag);

/** True for any of the four list tags. */
bool isListTag(Tag tag);

/** True for an in-line (elements-follow) complex tag. */
bool isInlineComplexTag(Tag tag);

/** isInlineComplexTag() for a tag already classified. */
constexpr bool
isInlineComplexClass(TagClass cls)
{
    return cls == TagClass::StructInline ||
        cls == TagClass::TermListInline ||
        cls == TagClass::UntermListInline;
}

/** True for an unterminated (tail-variable) list tag. */
bool isUntermListTag(Tag tag);

/** Arity field of a complex tag (low 5 bits). */
std::uint32_t tagArity(Tag tag);

/** Most significant nibble of an integer in-line tag. */
std::uint32_t tagIntNibble(Tag tag);

/** Compose an integer in-line tag from a value nibble. */
Tag makeIntegerTag(std::uint32_t ms_nibble);

/** Compose a complex tag from a family base and arity (1..31). */
Tag makeComplexTag(Tag base, std::uint32_t arity);

/** True if the tag's item carries a 32-bit extension word. */
bool tagHasExtension(Tag tag);

/**
 * tagHasExtension() for a tag already classified: only structure
 * pointers carry a separate extension word; list pointers keep the
 * pointer in the content field (Table A1).
 */
constexpr bool
classHasExtension(TagClass cls)
{
    return cls == TagClass::StructPointer;
}

/** Enumerate every valid tag byte (ascending). */
std::vector<Tag> allValidTags();

/** Count of valid tag bytes (cf. the paper's "107 data types"). */
std::size_t countSupportedTags();

} // namespace clare::pif

#endif // CLARE_PIF_TYPE_TAGS_HH
