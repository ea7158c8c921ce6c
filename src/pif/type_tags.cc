#include "pif/type_tags.hh"

#include "support/logging.hh"

namespace clare::pif {

bool
isValidTag(Tag tag)
{
    switch (tag) {
      case kAnonymousVar:
      case kFirstQueryVar:
      case kSubQueryVar:
      case kFirstDbVar:
      case kSubDbVar:
      case kAtomPointer:
      case kFloatPointer:
        return true;
      default:
        break;
    }
    if ((tag & 0xf0) == kIntegerInlineBase)
        return true;
    // Complex families: top 3 bits select the family, low 5 the arity.
    std::uint8_t family = tag & 0xe0;
    std::uint32_t arity = tag & 0x1f;
    switch (family) {
      case kStructInlineBase:
      case kStructPointerBase:
      case kTermListInlineBase:
      case kUntermListInlineBase:
      case kTermListPointerBase:
      case kUntermListPointerBase:
        return arity >= 1 && arity <= kMaxInlineArity;
      default:
        return false;
    }
}

TagClass
tagClass(Tag tag)
{
    switch (tag) {
      case kAnonymousVar: return TagClass::AnonymousVar;
      case kFirstQueryVar: return TagClass::FirstQueryVar;
      case kSubQueryVar: return TagClass::SubQueryVar;
      case kFirstDbVar: return TagClass::FirstDbVar;
      case kSubDbVar: return TagClass::SubDbVar;
      case kAtomPointer: return TagClass::Atom;
      case kFloatPointer: return TagClass::Float;
      default:
        break;
    }
    if ((tag & 0xf0) == kIntegerInlineBase)
        return TagClass::Integer;
    switch (tag & 0xe0) {
      case kStructInlineBase: return TagClass::StructInline;
      case kStructPointerBase: return TagClass::StructPointer;
      case kTermListInlineBase: return TagClass::TermListInline;
      case kUntermListInlineBase: return TagClass::UntermListInline;
      case kTermListPointerBase: return TagClass::TermListPointer;
      case kUntermListPointerBase: return TagClass::UntermListPointer;
      default:
        clare_panic("invalid PIF tag 0x%02x", tag);
    }
}

TagCategory
tagCategory(Tag tag)
{
    switch (tagClass(tag)) {
      case TagClass::AnonymousVar:
      case TagClass::FirstQueryVar:
      case TagClass::SubQueryVar:
      case TagClass::FirstDbVar:
      case TagClass::SubDbVar:
        return TagCategory::Variable;
      case TagClass::Atom:
      case TagClass::Float:
      case TagClass::Integer:
        return TagCategory::Simple;
      default:
        return TagCategory::Complex;
    }
}

const char *
tagClassName(TagClass cls)
{
    switch (cls) {
      case TagClass::AnonymousVar: return "Anonymous Var";
      case TagClass::FirstQueryVar: return "First Query Var";
      case TagClass::SubQueryVar: return "Subsequent Query Var";
      case TagClass::FirstDbVar: return "First DB Var";
      case TagClass::SubDbVar: return "Subsequent DB Var";
      case TagClass::Atom: return "Atom Pointer";
      case TagClass::Float: return "Float Pointer";
      case TagClass::Integer: return "Integer In-line";
      case TagClass::StructInline: return "Structure In-line";
      case TagClass::StructPointer: return "Structure Pointer";
      case TagClass::TermListInline: return "Terminated List In-line";
      case TagClass::UntermListInline: return "Unterminated List In-line";
      case TagClass::TermListPointer: return "Terminated List Pointer";
      case TagClass::UntermListPointer: return "Unterminated List Pointer";
    }
    return "?";
}

bool
isVariableTag(Tag tag)
{
    return tagCategory(tag) == TagCategory::Variable;
}

bool
isComplexTag(Tag tag)
{
    return tagCategory(tag) == TagCategory::Complex;
}

bool
isListTag(Tag tag)
{
    switch (tagClass(tag)) {
      case TagClass::TermListInline:
      case TagClass::UntermListInline:
      case TagClass::TermListPointer:
      case TagClass::UntermListPointer:
        return true;
      default:
        return false;
    }
}

bool
isInlineComplexTag(Tag tag)
{
    return isInlineComplexClass(tagClass(tag));
}

bool
isUntermListTag(Tag tag)
{
    TagClass cls = tagClass(tag);
    return cls == TagClass::UntermListInline ||
           cls == TagClass::UntermListPointer;
}

std::uint32_t
tagArity(Tag tag)
{
    clare_assert(isComplexTag(tag), "arity of a non-complex tag 0x%02x",
                 tag);
    return tag & 0x1f;
}

std::uint32_t
tagIntNibble(Tag tag)
{
    clare_assert(tagClass(tag) == TagClass::Integer,
                 "nibble of non-integer tag 0x%02x", tag);
    return tag & 0x0f;
}

Tag
makeIntegerTag(std::uint32_t ms_nibble)
{
    clare_assert(ms_nibble <= 0x0f, "integer nibble %u out of range",
                 ms_nibble);
    return static_cast<Tag>(kIntegerInlineBase | ms_nibble);
}

Tag
makeComplexTag(Tag base, std::uint32_t arity)
{
    clare_assert(arity >= 1 && arity <= kMaxInlineArity,
                 "complex tag arity %u out of range", arity);
    return static_cast<Tag>(base | arity);
}

bool
tagHasExtension(Tag tag)
{
    return classHasExtension(tagClass(tag));
}

std::vector<Tag>
allValidTags()
{
    std::vector<Tag> tags;
    for (int t = 0; t < 256; ++t)
        if (isValidTag(static_cast<Tag>(t)))
            tags.push_back(static_cast<Tag>(t));
    return tags;
}

std::size_t
countSupportedTags()
{
    return allValidTags().size();
}

} // namespace clare::pif
