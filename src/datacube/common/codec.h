#ifndef DATACUBE_COMMON_CODEC_H_
#define DATACUBE_COMMON_CODEC_H_

#include <string>

#include "datacube/common/result.h"
#include "datacube/common/value.h"

namespace datacube {

/// A compact, exact, text-safe encoding of Values used by the persistence
/// layer (cube checkpoints). Unlike CSV it round-trips types, NULL vs ALL vs
/// empty string, and floating-point bits (%.17g).
///
/// Format (self-delimiting): N; A; B0; B1; I<int>; F<float>; D<days>;
/// S<len>:<bytes>
void EncodeValue(const Value& value, std::string* out);

/// Decodes one value starting at *pos, advancing *pos past it.
Result<Value> DecodeValue(const std::string& data, size_t* pos);

/// DecodeValue of one expected kind: a value of any other kind is a
/// ParseError, so a corrupt tag surfaces as a Status rather than as an
/// exception from the Value accessor.
Result<int64_t> DecodeInt64(const std::string& data, size_t* pos);
Result<double> DecodeFloat64(const std::string& data, size_t* pos);
Result<bool> DecodeBool(const std::string& data, size_t* pos);
Result<std::string> DecodeString(const std::string& data, size_t* pos);

/// Length-prefixed raw string (used for scratchpad blobs): <len>:<bytes>
void EncodeBlob(const std::string& blob, std::string* out);
Result<std::string> DecodeBlob(const std::string& data, size_t* pos);

/// Unsigned integer with trailing space (header fields).
void EncodeCount(uint64_t n, std::string* out);
Result<uint64_t> DecodeCount(const std::string& data, size_t* pos);

/// DecodeCount for the length of a list whose items take at least
/// `min_item_bytes` encoded bytes each (an encoded Value takes two): a
/// count the rest of `data` cannot hold is a ParseError, so callers may
/// reserve() what it returns.
Result<uint64_t> DecodeListCount(const std::string& data, size_t* pos,
                                 size_t min_item_bytes);

}  // namespace datacube

#endif  // DATACUBE_COMMON_CODEC_H_
